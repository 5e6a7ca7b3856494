//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep off Linux, where the open-loop figures
// carry the runtime timer's millisecond granularity as generator lateness.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error { time.Sleep(d); return nil }

func (p *pacer) close() {}

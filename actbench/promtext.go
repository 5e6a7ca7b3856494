package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promScrape is one /metrics scrape: every sample keyed by its series as
// rendered ("name" or "name{label=\"v\",...}").
type promScrape map[string]float64

// parseProm reads the Prometheus text exposition format. Comment lines
// are skipped; a sample line is "<series> <value>" with an optional
// timestamp, which is ignored.
func parseProm(r io.Reader) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series may carry label values with spaces; the value is the
		// first field after the closing brace (or after the name).
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// total sums every series of the named metric across its label sets.
func (s promScrape) total(name string) float64 {
	t := 0.0
	for series, v := range s {
		if series == name || (strings.HasPrefix(series, name+"{")) {
			t += v
		}
	}
	return t
}

// delta returns after minus before for every series in after.
func (after promScrape) delta(before promScrape) promScrape {
	d := promScrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add folds another scrape's samples into s (several cluster members).
func (s promScrape) add(o promScrape) {
	for k, v := range o {
		s[k] += v
	}
}

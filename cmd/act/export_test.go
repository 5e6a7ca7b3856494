package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"act/internal/export"
	"act/internal/fleet"
)

// TestExportByteIdentity is the export cross-surface acceptance check:
// `act export` over an NDJSON fleet file must produce the exact bytes the
// push exporter renders for the same fleet at the same timestamp.
func TestExportByteIdentity(t *testing.T) {
	ndjson := fleetNDJSON(t, 60, 5)
	const at = "2026-03-01T12:00:00Z"
	ts, err := time.Parse(time.RFC3339, at)
	if err != nil {
		t.Fatal(err)
	}

	var cli bytes.Buffer
	if err := runExport([]string{"-at", at}, bytes.NewReader(ndjson), &cli); err != nil {
		t.Fatal(err)
	}

	reg := fleet.New(fleet.Config{})
	if _, err := reg.IngestNDJSON(bytes.NewReader(ndjson), 0); err != nil {
		t.Fatal(err)
	}
	want, err := export.RenderOnce([]export.Generator{&export.FleetGenerator{Reg: reg}}, ts)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cli.Bytes(), want) {
		t.Fatalf("act export diverged from the exporter's rendering:\ncli:\n%.400s\nexporter:\n%.400s",
			cli.Bytes(), want)
	}
	if !strings.HasPrefix(cli.String(), "act_fleet_devices 60 ") {
		t.Errorf("unexpected head: %.80s", cli.String())
	}
}

// TestExportBadTimestamp pins the -at parse failure path.
func TestExportBadTimestamp(t *testing.T) {
	var out bytes.Buffer
	err := runExport([]string{"-at", "yesterday"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "parsing -at") {
		t.Fatalf("err = %v, want a -at parse error", err)
	}
}

// TestShardCountBound: a -shards count above fleet.MaxShards is a usage
// error on both fleet subcommands, refused before a registry whose
// snapshot could never be restored is built.
func TestShardCountBound(t *testing.T) {
	for name, run := range map[string]func([]string, io.Reader, io.Writer) error{
		"fleet": runFleet, "export": runExport,
	} {
		err := run([]string{"-shards", strconv.Itoa(fleet.MaxShards + 1)}, strings.NewReader(""), io.Discard)
		want := fmt.Sprintf("invalid value %q for flag -shards: above the maximum of %d shards",
			strconv.Itoa(fleet.MaxShards+1), fleet.MaxShards)
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
		if err := run([]string{"-shards", "0x10"}, strings.NewReader(""), io.Discard); err != nil {
			t.Errorf("%s: -shards 0x10: %v", name, err)
		}
	}
}

package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"act/internal/acterr"
	"act/internal/conform"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/vfs"
)

// wireVariants renders s in canonically equal wire forms: indented,
// compact, version omitted, node case and spacing changed, count 0 and 1
// swapped, and a nil fab swapped with a zero one.
func wireVariants(t *testing.T, s *scenario.Spec) [][]byte {
	t.Helper()
	indented, err := scenario.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{indented, compact.Bytes()}
	for _, change := range []func(v *scenario.Spec){
		func(v *scenario.Spec) { v.Version = 0 },
		func(v *scenario.Spec) {
			for i := range v.Logic {
				v.Logic[i].Node = " " + strings.ToUpper(strings.TrimSpace(v.Logic[i].Node)) + "  "
			}
		},
		func(v *scenario.Spec) {
			for i := range v.Logic {
				switch v.Logic[i].Count {
				case 0:
					v.Logic[i].Count = 1
				case 1:
					v.Logic[i].Count = 0
				}
			}
		},
		func(v *scenario.Spec) {
			for i := range v.Logic {
				if v.Logic[i].Fab == nil {
					v.Logic[i].Fab = &scenario.FabSpec{}
				} else if *v.Logic[i].Fab == (scenario.FabSpec{}) {
					v.Logic[i].Fab = nil
				}
			}
		},
	} {
		v := *s
		v.Version = scenario.Version
		v.Logic = append([]scenario.LogicSpec(nil), s.Logic...)
		change(&v)
		raw, err := json.Marshal(&v)
		if err != nil {
			t.Fatal(err)
		}
		if v.CanonicalKey() != s.CanonicalKey() {
			t.Fatalf("variant %s is not canonically equal to its base", raw)
		}
		out = append(out, raw)
	}
	return out
}

// splitmix is a fixed pseudo-random stream.
type splitmix uint64

func (s *splitmix) intn(n int) int {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// diffChunks renders the differential workload: NDJSON chunks of devices
// over the conformance corpus in every wire variant, with re-sent ids,
// region spellings, defaulted and explicit windows and utilizations, and
// an occasional invalid line.
func diffChunks(t *testing.T, nChunks, size int) [][]byte {
	t.Helper()
	var wires [][]byte
	for _, s := range conform.GenerateCorpus(14, 48) {
		wires = append(wires, wireVariants(t, s)...)
	}
	regions := []string{"world", "india", "united-states", "europe", "brazil", "United-States", " europe "}
	bad := []string{`,"bogus":1`, `,"utilization":"x"`, `,"utilization":2`, `,"retired":"2019-01-01"`}
	rng := splitmix(3)
	chunks := make([][]byte, nChunks)
	for c := range chunks {
		var buf bytes.Buffer
		for j := 0; j < size; j++ {
			fmt.Fprintf(&buf, `{"id":"dev-%04d","region":%q,"deployed":"202%d-0%d-1%d"`,
				rng.intn(900), regions[rng.intn(len(regions))], rng.intn(5), 1+rng.intn(9), rng.intn(10))
			if rng.intn(3) > 0 {
				fmt.Fprintf(&buf, `,"retired":"2026-0%d-01T00:00:00Z"`, 1+rng.intn(9))
			}
			if rng.intn(4) > 0 {
				fmt.Fprintf(&buf, `,"utilization":0.%03d`, rng.intn(1000))
			}
			if rng.intn(200) == 0 {
				buf.WriteString(bad[rng.intn(len(bad))])
			}
			fmt.Fprintf(&buf, `,"scenario":%s}`+"\n", wires[rng.intn(len(wires))])
		}
		chunks[c] = buf.Bytes()
	}
	return chunks
}

// summarizer is the query surface both registries share.
type summarizer interface {
	Query(fleet.Query) (report.FleetSummaryJSON, error)
}

// diffQueries are the compared summary shapes.
var diffQueries = []fleet.Query{{}, {GroupBy: "region"}, {GroupBy: "node"}, {GroupBy: "class"}, {TopK: 10}}

func summaryDocs(t *testing.T, s summarizer) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range diffQueries {
		doc, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.Encode(&buf, doc); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

func assertSameSummaries(t *testing.T, what string, got, want summarizer) {
	t.Helper()
	g, w := summaryDocs(t, got), summaryDocs(t, want)
	for i := range g {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s: %+v summary diverges from the reference\n got: %s\nwant: %s", what, diffQueries[i], g[i], w[i])
		}
	}
}

// errShape is what the differential compares of an ingest error: its
// class, its field path and its text.
func errShape(err error) string {
	if err == nil {
		return "ok"
	}
	class := "internal"
	switch {
	case errors.Is(err, fleet.ErrTooMany):
		class = "too_many"
	case acterr.IsInvalid(err):
		class = "invalid"
	}
	var inv *acterr.InvalidSpecError
	field := ""
	if errors.As(err, &inv) {
		field = inv.Field
	}
	return fmt.Sprintf("%s field=%q: %v", class, field, err)
}

// TestIngestMatchesReference runs the conformance corpus, in canonically
// equal wire variants, through the registry and through the per-device
// reference: every chunk must end with the same result and error, and the
// summaries (plain, grouped by region, node and class, top 10, and
// DistinctBoMs) must be byte-identical — live, after WAL replay over a
// mid-stream checkpoint, and after a snapshot restore.
func TestIngestMatchesReference(t *testing.T) {
	const shards = 16
	chunks := diffChunks(t, 60, 40)
	m := vfs.NewMemFS()
	storeCfg := fleet.StoreConfig{FS: m, SnapshotPath: "data/fleet.snap", WALDir: "data/wal"}
	reg := fleet.New(fleet.Config{Shards: shards})
	st, err := fleet.OpenStore(context.Background(), reg, storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := fleet.NewRefFleet(shards)
	var refCk *fleet.RefFleet // the reference restored at the checkpoint
	failures := 0
	rng := splitmix(5)
	for c, chunk := range chunks {
		res, err := reg.IngestNDJSON(bytes.NewReader(chunk), 0)
		wantRes, wantErr := ref.IngestNDJSON(bytes.NewReader(chunk), 0)
		if res != wantRes || errShape(err) != errShape(wantErr) {
			t.Fatalf("chunk %d: got %+v, %s\nwant %+v, %s", c, res, errShape(err), wantRes, errShape(wantErr))
		}
		if err != nil {
			failures++
		}
		if refCk != nil {
			_, _ = refCk.IngestNDJSON(bytes.NewReader(chunk), 0)
		}
		for k := 0; k < 3; k++ {
			id := fmt.Sprintf("dev-%04d", rng.intn(900))
			found, err := reg.Remove(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Remove(id); found != want {
				t.Fatalf("remove %s: found %v, reference %v", id, found, want)
			}
			if refCk != nil {
				refCk.Remove(id)
			}
		}
		if c == len(chunks)/2 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			refCk = ref.Restored()
		}
	}
	if failures == 0 || reg.Len() < 500 {
		t.Fatalf("workload too tame: %d failing chunks, %d devices", failures, reg.Len())
	}
	assertSameSummaries(t, "live", reg, ref)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := fleet.New(fleet.Config{Shards: shards})
	if _, err := fleet.OpenStore(context.Background(), replayed, storeCfg); err != nil {
		t.Fatal(err)
	}
	assertSameSummaries(t, "snapshot + WAL replay", replayed, refCk)

	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := fleet.New(fleet.Config{})
	if _, err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	assertSameSummaries(t, "snapshot restore", restored, ref.Restored())
}

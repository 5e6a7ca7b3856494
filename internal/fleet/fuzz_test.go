package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"act/internal/acterr"
	"act/internal/report"
	"act/internal/scenario"
)

// FuzzFleetIngestNDJSON throws arbitrary byte streams at the ingest path.
// The invariants: no panic, the result counts stay coherent with the
// registry, a reported error never leaves a half-applied record, and the
// summary over whatever was accepted is well-formed. Differentially, the
// single-pass decoder and BoM table must agree with the per-device
// reference (reference_test.go) on every input: the same result, the same
// error class, field path and text, and the same summary bytes.
func FuzzFleetIngestNDJSON(f *testing.F) {
	spec, err := scenario.Marshal(&scenario.Spec{
		Name:  "seed",
		Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: 100, Node: "7nm"}},
		Usage: scenario.UsageSpec{PowerW: 2, AppHours: 100},
	})
	if err != nil {
		f.Fatal(err)
	}
	valid := fmt.Sprintf(`{"id":"a","region":"united-states","deployed":"2024-01-01","scenario":%s}`, spec)
	f.Add([]byte(valid))
	f.Add([]byte(valid + "\n" + valid))
	f.Add([]byte(`{"id":"a"}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"id":"a","region":"mars","deployed":"2024-01-01","scenario":{}}`))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-13-99","scenario":%s}`, spec)))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","utilization":7,"scenario":%s}`, spec)))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","retired":"2020-01-01","scenario":%s}`, spec)))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","bogus":1,"scenario":%s}`, spec)))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","utilization":"x","scenario":%s}`, spec)))
	f.Add([]byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","scenario":%s}`+"\n"+
		`{"id":"b","region":"india","deployed":"2024-01-01T00:00:00Z","scenario":%s}`, spec, bytes.ReplaceAll(spec, []byte("7nm"), []byte(" 7NM ")))))
	f.Add([]byte(`{"id":5}`))
	f.Add([]byte(`{"id":"a","scenario":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := New(Config{Shards: 4})
		res, err := reg.IngestNDJSON(bytes.NewReader(data), 64)
		ref := newRefFleet(4)
		wantRes, wantErr := ref.IngestNDJSON(bytes.NewReader(data), 64)
		if res != wantRes || fuzzErrShape(err) != fuzzErrShape(wantErr) {
			t.Fatalf("diverges from the reference:\n got %+v, %s\nwant %+v, %s",
				res, fuzzErrShape(err), wantRes, fuzzErrShape(wantErr))
		}
		for _, q := range []Query{{TopK: 3, GroupBy: "class"}, {GroupBy: "node"}} {
			got, _ := reg.Query(q)
			want, _ := ref.Query(q)
			var g, w bytes.Buffer
			gerr, werr := report.Encode(&g, got), report.Encode(&w, want)
			if (gerr == nil) != (werr == nil) || !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Fatalf("%+v summary diverges from the reference\n got: %s\nwant: %s", q, g.Bytes(), w.Bytes())
			}
		}
		if res.Upserted < 0 || res.Replaced < 0 || res.Replaced > res.Upserted {
			t.Fatalf("incoherent result %+v", res)
		}
		if got := reg.Len(); got != res.Upserted-res.Replaced {
			t.Fatalf("Len %d != upserted %d - replaced %d", got, res.Upserted, res.Replaced)
		}
		doc := reg.Summary()
		if doc.Devices != reg.Len() {
			t.Fatalf("summary devices %d != Len %d", doc.Devices, reg.Len())
		}
		if doc.DistinctBoMs > doc.Devices {
			t.Fatalf("distinct BoMs %d exceeds devices %d", doc.DistinctBoMs, doc.Devices)
		}
		if err != nil && err.Error() == "" {
			t.Fatal("error with empty message")
		}

		// Whatever was accepted must survive a snapshot round-trip intact.
		if doc.Devices > 0 {
			var snap bytes.Buffer
			if err := reg.Snapshot(&snap); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			reg2 := New(Config{})
			if _, err := reg2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if reg2.Len() != reg.Len() {
				t.Fatalf("round-trip Len %d != %d", reg2.Len(), reg.Len())
			}
		}
	})
}

// fuzzErrShape is the compared shape of an ingest error: class, field
// path and text.
func fuzzErrShape(err error) string {
	if err == nil {
		return "ok"
	}
	var inv *acterr.InvalidSpecError
	field := ""
	if errors.As(err, &inv) {
		field = inv.Field
	}
	return fmt.Sprintf("invalid=%v too_many=%v field=%q: %v",
		acterr.IsInvalid(err), errors.Is(err, ErrTooMany), field, err)
}

package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"act/internal/acterr"
)

// exampleWire is the frozen version-1 wire form of Example(). If this test
// breaks, the wire format changed — that is an API break for every stored
// scenario and for actd clients, and needs a version bump, not a golden
// update.
const exampleWire = `{
  "version": 1,
  "name": "mobile-phone",
  "logic": [
    {
      "name": "application SoC",
      "area_mm2": 98.5,
      "node": "7nm",
      "count": 1
    },
    {
      "name": "board ICs",
      "area_mm2": 30,
      "node": "28nm",
      "count": 12
    }
  ],
  "dram": [
    {
      "name": "LPDDR4",
      "technology": "lpddr4",
      "capacity_gb": 4
    }
  ],
  "storage": [
    {
      "name": "flash",
      "technology": "v3-nand-tlc",
      "capacity_gb": 64
    }
  ],
  "usage": {
    "power_w": 3,
    "app_hours": 876.6,
    "intensity_g_per_kwh": 300,
    "battery_efficiency": 0.85
  },
  "transport": [
    {
      "name": "fab to assembly",
      "mass_kg": 0.2,
      "distance_km": 1500,
      "mode": "road"
    },
    {
      "name": "assembly to market",
      "mass_kg": 0.3,
      "distance_km": 9000,
      "mode": "air"
    }
  ],
  "end_of_life": {
    "processing_kg": 0.4,
    "recycling_credit_kg": 0.1
  },
  "lifetime_years": 3
}
`

func TestMarshalGolden(t *testing.T) {
	data, err := Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != exampleWire {
		t.Errorf("wire format drifted:\ngot:\n%s\nwant:\n%s", data, exampleWire)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	orig := Example()
	data, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Unmarshal normalizes the version; do the same to the original.
	want := *orig
	want.Version = Version
	if !reflect.DeepEqual(&want, back) {
		t.Errorf("round trip changed the spec:\ngot  %+v\nwant %+v", back, &want)
	}
	// And the re-marshal is byte-identical: the format is a fixed point.
	again, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("Marshal(Unmarshal(Marshal(x))) != Marshal(x)")
	}
}

// TestMarshalCompactMatchesIndented pins the compact form to the indented
// one: the same document minus whitespace, read back to the same spec.
func TestMarshalCompactMatchesIndented(t *testing.T) {
	compact, err := MarshalCompact(Example())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, []byte(exampleWire)); err != nil {
		t.Fatal(err)
	}
	if string(compact) != want.String() {
		t.Errorf("compact form drifted:\ngot  %s\nwant %s", compact, want.Bytes())
	}
	back, err := Unmarshal(compact)
	if err != nil {
		t.Fatal(err)
	}
	if back.CanonicalKey() != Example().CanonicalKey() {
		t.Error("compact round trip changed the canonical key")
	}
}

// TestDecoderMatchesUnmarshal feeds one Decoder a sequence of documents —
// valid ones between failures, trailing bytes, two documents in one call —
// and checks each outcome against a fresh Unmarshal, so no state leaks
// from one document into the next.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	compact, err := MarshalCompact(Example())
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(string(compact), `"version":1,`, ``, 1)
	other = strings.Replace(other, `"name":"`, `"name":"other-`, 1)
	docs := []string{
		exampleWire,
		string(compact),
		`{"name":"x","bogus":1}`,
		other,
		`{"name":"x","logic":[{"name":"l","area_mm2":"big"}]}`,
		string(compact),
		other + "  \n",
		other + other,
		`{"version":2,"name":"x"}`,
		`null`,
		``,
		`{"name":`,
		`[1,2]`,
		string(compact),
	}
	var d Decoder
	for i, doc := range docs {
		got, gerr := d.Decode([]byte(doc))
		want, werr := Unmarshal([]byte(doc))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("doc %d: error %v, Unmarshal says %v", i, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: spec %+v, Unmarshal says %+v", i, got, want)
		}
	}
}

func TestVersionDefaultsTo1(t *testing.T) {
	s, err := Parse(strings.NewReader(`{"name":"x","logic":[{"name":"l","area_mm2":1,"node":"7nm"}],"usage":{"power_w":1,"app_hours":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != 1 {
		t.Errorf("missing version parsed as %d, want 1", s.Version)
	}
	s2, err := Parse(strings.NewReader(`{"version":1,"name":"x","logic":[{"name":"l","area_mm2":1,"node":"7nm"}],"usage":{"power_w":1,"app_hours":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 1 {
		t.Errorf("explicit version parsed as %d", s2.Version)
	}
}

func TestUnknownVersionTypedError(t *testing.T) {
	for _, v := range []string{"2", "-1", "99"} {
		_, err := Parse(strings.NewReader(`{"version":` + v + `,"name":"x"}`))
		if err == nil {
			t.Fatalf("version %s: expected error", v)
		}
		if !errors.Is(err, acterr.ErrUnsupportedVersion) {
			t.Errorf("version %s: not an ErrUnsupportedVersion: %v", v, err)
		}
		var uv *acterr.UnsupportedVersionError
		if !errors.As(err, &uv) {
			t.Errorf("version %s: not an UnsupportedVersionError: %v", v, err)
		}
	}
}

func TestParseRequestSingle(t *testing.T) {
	specs, batch, err := ParseRequest(strings.NewReader(exampleWire))
	if err != nil {
		t.Fatal(err)
	}
	if batch {
		t.Error("single object reported as batch")
	}
	if len(specs) != 1 || specs[0].Name != "mobile-phone" {
		t.Errorf("specs = %+v", specs)
	}
}

func TestParseRequestBatch(t *testing.T) {
	body := "[" + strings.TrimSpace(exampleWire) + ",\n" + strings.TrimSpace(exampleWire) + "]"
	specs, batch, err := ParseRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !batch {
		t.Error("array not reported as batch")
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"empty body", "   "},
		{"empty batch", "[]"},
		{"bad json", "{nope"},
		{"bad batch json", "[{nope"},
		{"unknown field", `{"name":"x","logics":[]}`},
	}
	for _, c := range cases {
		if _, _, err := ParseRequest(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseRequestBatchIndexInFieldPath(t *testing.T) {
	body := `[{"version":1,"name":"x","usage":{"power_w":1,"app_hours":1}},{"version":7,"name":"y"}]`
	_, batch, err := ParseRequest(strings.NewReader(body))
	if !batch || err == nil {
		t.Fatalf("batch=%v err=%v", batch, err)
	}
	var inv *acterr.InvalidSpecError
	if !errors.As(err, &inv) {
		t.Fatalf("no InvalidSpecError in %v", err)
	}
	if !strings.HasPrefix(inv.Field, "[1]") {
		t.Errorf("field path %q does not carry batch index [1]", inv.Field)
	}
}

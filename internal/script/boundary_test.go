package script_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"act/internal/colbatch"
	"act/internal/conform"
	"act/internal/scenario"
	"act/internal/script"
)

// Differential tests for the host boundary: the direct spec walk and the
// direct document decoder against the JSON round trips they replace,
// over the conformance corpus and its mutants.

const (
	boundarySeed = 20240611
	boundaryN    = 300
)

// literal evaluates a script expression (a map or list literal) to its
// value.
func literal(t testing.TB, src string) script.Value {
	t.Helper()
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatalf("evaluating literal: %v\n%s", err, src)
	}
	return res.Value
}

// specLiteral renders a spec as a script map literal, exactly as a user
// pastes a wire scenario into a program.
func specLiteral(t testing.TB, s *scenario.Spec) string {
	t.Helper()
	data, err := scenario.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// roundTrip is the reference: compact JSON, strictly decoded.
func roundTrip(t testing.TB, v script.Value) (*scenario.Spec, error) {
	t.Helper()
	data, err := script.CompactJSON(v)
	if err != nil {
		return nil, err
	}
	return scenario.Unmarshal(data)
}

// checkWalk asserts the walk, whenever it accepts, builds exactly the
// spec the round trip decodes. It reports whether the walk accepted.
func checkWalk(t testing.TB, name string, v script.Value) bool {
	t.Helper()
	walked, ok := script.WalkSpec(v)
	if !ok {
		return false
	}
	want, err := roundTrip(t, v)
	if err != nil {
		t.Errorf("%s: walk accepted what the round trip rejects: %v", name, err)
		return true
	}
	if !reflect.DeepEqual(walked, want) {
		t.Errorf("%s: walk diverges from round trip:\nwalk:  %+v\ntrip:  %+v", name, walked, want)
	}
	return true
}

// (a) Over the whole seeded corpus the walk accepts every scenario — the
// fast path is the common path — and builds the round trip's spec.
func TestSpecWalkMatchesRoundTripOverCorpus(t *testing.T) {
	for i, s := range conform.GenerateCorpus(boundarySeed, boundaryN) {
		v := literal(t, specLiteral(t, s))
		if !checkWalk(t, fmt.Sprintf("corpus[%d]", i), v) {
			t.Errorf("corpus[%d]: walk fell back on a canonical scenario", i)
		}
	}
}

// (a) Shapes the corpus does not reach: JSON's empty-container and
// number edge cases the walk must reproduce, and the values it must hand
// to the strict decoder.
func TestSpecWalkEdgeCases(t *testing.T) {
	accept := map[string]string{
		"empty lists":      `{"name": "x", "logic": [], "dram": [], "storage": [], "transport": []}`,
		"empty fab":        `{"name": "x", "logic": [{"name": "a", "area_mm2": 1, "node": "7nm", "fab": {}}]}`,
		"empty eol":        `{"name": "x", "end_of_life": {}}`,
		"empty usage":      `{"name": "x", "usage": {}}`,
		"empty map":        `{}`,
		"version 0":        `{"version": 0, "name": "x"}`,
		"version 1":        `{"version": 1, "name": "x"}`,
		"negative zero":    `{"name": "x", "lifetime_years": -0, "extra_ics": -0}`,
		"max exact int":    `{"name": "x", "extra_ics": 9007199254740992}`,
		"negative int":     `{"name": "x", "logic": [{"name": "a", "count": -3}]}`,
		"tiny and huge":    `{"name": "x", "lifetime_years": 1e-300, "usage": {"power_w": 1e300, "app_hours": 5e-324}}`,
		"html and unicode": `{"name": "<a&b> \"q\" \\ é 日本 🌍  "}`,
		"full eol":         `{"name": "x", "end_of_life": {"processing_kg": 1.5, "recycling_credit_kg": 0.25}}`,
		"full fab":         `{"name": "x", "logic": [{"name": "a", "fab": {"carbon_intensity": 500, "abatement": 0.97, "yield": 0.9}}]}`,
	}
	for name, src := range accept {
		if !checkWalk(t, name, literal(t, src)) {
			t.Errorf("%s: walk fell back", name)
		}
	}

	reject := map[string]func() script.Value{
		"unknown key":        func() script.Value { return literal(t, `{"name": "x", "bogus": 1}`) },
		"case-variant key":   func() script.Value { return literal(t, `{"Name": "x"}`) },
		"nested case key":    func() script.Value { return literal(t, `{"usage": {"Power_W": 1}}`) },
		"nil value":          func() script.Value { return literal(t, `{"name": nil}`) },
		"nil list element":   func() script.Value { return literal(t, `{"logic": [nil]}`) },
		"nil fab":            func() script.Value { return literal(t, `{"logic": [{"fab": nil}]}`) },
		"version 2":          func() script.Value { return literal(t, `{"version": 2}`) },
		"version -1":         func() script.Value { return literal(t, `{"version": -1}`) },
		"fractional int":     func() script.Value { return literal(t, `{"extra_ics": 2.5}`) },
		"int past 2^53":      func() script.Value { return literal(t, `{"extra_ics": 9007199254740994}`) },
		"int overflow":       func() script.Value { return literal(t, `{"extra_ics": 1e20}`) },
		"string for number":  func() script.Value { return literal(t, `{"lifetime_years": "3"}`) },
		"number for string":  func() script.Value { return literal(t, `{"name": 3}`) },
		"bool for number":    func() script.Value { return literal(t, `{"usage": {"pue": true}}`) },
		"map for list":       func() script.Value { return literal(t, `{"logic": {}}`) },
		"list for map":       func() script.Value { return literal(t, `{"usage": []}`) },
		"function value":     func() script.Value { return literal(t, `{"name": len}`) },
		"NaN":                func() script.Value { return withField("lifetime_years", math.NaN()) },
		"+Inf":               func() script.Value { return withField("lifetime_years", math.Inf(1)) },
		"-Inf":               func() script.Value { return withField("lifetime_years", math.Inf(-1)) },
		"Inf int":            func() script.Value { return withField("extra_ics", math.Inf(1)) },
		"invalid UTF-8":      func() script.Value { return withField("name", "bad \xff byte") },
		"not a map":          func() script.Value { return literal(t, `[1]`) },
		"list of non-maps":   func() script.Value { return literal(t, `{"dram": [1]}`) },
		"unknown nested key": func() script.Value { return literal(t, `{"end_of_life": {"landfill_kg": 1}}`) },
	}
	for name, mk := range reject {
		if _, ok := script.WalkSpec(mk()); ok {
			t.Errorf("%s: walk accepted a value the round trip does not decode identically", name)
		}
	}
}

func withField(key string, v script.Value) *script.Map {
	m := script.NewMap()
	m.Set("name", "x")
	m.Set(key, v)
	return m
}

// outcome runs a program and renders what the caller sees: the result
// envelope, or the error text.
func outcome(src string) string {
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		return "encode error: " + err.Error()
	}
	return buf.String()
}

// bothPaths returns a program's outcome with the direct walk on and with
// the strict round trip alone.
func bothPaths(src string) (direct, strict string) {
	direct = outcome(src)
	restore := script.SetDirectSpecs(false)
	defer restore()
	return direct, outcome(src)
}

// mutantBase mirrors the conformance harness's mutant base: every table
// family present once, defaults elsewhere.
func mutantBase() *scenario.Spec {
	return &scenario.Spec{
		Name:    "mutant-base",
		Logic:   []scenario.LogicSpec{{Name: "soc", AreaMM2: 100, Node: "7nm"}},
		DRAM:    []scenario.DRAMSpec{{Name: "dram", Technology: "lpddr4", CapacityGB: 8}},
		Storage: []scenario.StorageSpec{{Name: "ssd", Technology: "1z-nand-tlc", CapacityGB: 256}},
		Usage:   scenario.UsageSpec{PowerW: 5, AppHours: 8766},
	}
}

// (b) Every spec and wire mutant, and every value the walk must hand to
// the strict decoder, answers footprint, footprint over a list and
// footprint_doc identically with and without the direct walk — the same
// document or the same error text.
func TestMutantOutcomesMatchRoundTrip(t *testing.T) {
	var bodies []string
	for _, m := range conform.SpecMutants() {
		s := mutantBase()
		m.Apply(s)
		bodies = append(bodies, specLiteral(t, s))
	}
	for _, m := range conform.WireMutants() {
		bodies = append(bodies, string(m.Body))
	}
	// Values only the strict decoder may judge: case-variant keys, nil,
	// non-integral or overflowing ints, wrong types.
	bodies = append(bodies,
		`{"Name": "x", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`,
		`{"name": nil, "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`,
		`{"name": "x", "extra_ics": 2.5}`,
		`{"name": "x", "extra_ics": 1e20}`,
		`{"name": "x", "logic": "soc"}`,
		`{"name": "x", "usage": {"pue": true}}`,
	)
	valid := specLiteral(t, mutantBase())
	var failed int
	for i, body := range bodies {
		for _, src := range []string{
			"footprint(" + body + ")",
			"footprint([" + valid + ", " + body + "])",
			"footprint_doc(" + body + ")",
		} {
			direct, strict := bothPaths(src)
			if direct != strict {
				t.Errorf("mutant %d: %s\ndirect: %s\nstrict: %s", i, src, direct, strict)
			}
			if strings.HasPrefix(direct, "error: ") {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no mutant failed: the differential exercised no error path")
	}
}

// tokenDecode is the reference document decoder: a json.Decoder token
// walk with UseNumber, exactly as the host decoded result documents
// before the direct walker.
func tokenDecode(doc []byte) (script.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var walk func() (script.Value, error)
	walk = func() (script.Value, error) {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{':
				m := script.NewMap()
				for dec.More() {
					k, err := dec.Token()
					if err != nil {
						return nil, err
					}
					v, err := walk()
					if err != nil {
						return nil, err
					}
					m.Set(k.(string), v)
				}
				_, err := dec.Token()
				return m, err
			case '[':
				l := &script.List{}
				for dec.More() {
					v, err := walk()
					if err != nil {
						return nil, err
					}
					l.Elems = append(l.Elems, v)
				}
				_, err := dec.Token()
				return l, err
			}
			return nil, fmt.Errorf("unexpected delimiter %v", t)
		case json.Number:
			return t.Float64()
		default:
			return t, nil
		}
	}
	return walk()
}

func checkDecode(t *testing.T, name string, doc []byte) {
	t.Helper()
	want, err := tokenDecode(doc)
	if err != nil {
		t.Fatalf("%s: reference decoder: %v", name, err)
	}
	got, err := script.DecodeDoc(doc)
	if err != nil {
		t.Fatalf("%s: DecodeDoc: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: direct decode diverges from token decode\ndoc: %s", name, doc)
	}
}

// (c) The direct document decoder builds the token decoder's tree for
// every corpus document, and for JSON shapes the canonical encoder can
// emit but the corpus may not reach.
func TestDecodeDocMatchesTokenDecoder(t *testing.T) {
	corpus := conform.GenerateCorpus(boundarySeed, boundaryN)
	res := colbatch.Eval(corpus)
	defer res.Close()
	for i := 0; i < res.Len(); i++ {
		if res.Err(i) != nil {
			continue
		}
		checkDecode(t, fmt.Sprintf("corpus[%d]", i), res.Doc(i))
	}
	for name, doc := range map[string]string{
		"escapes":       `{"device": "q\" b\\ <a&b>   🌍 \n\t�", "x": 1}`,
		"raw unicode":   `{"device": "é 日本 🌍"}`,
		"numbers":       `[0, -0, 1e-7, 1.5e+300, -2.25, 123456789012345678901234567890, 5e-324]`,
		"empties":       `{"a": {}, "b": [], "c": [{}, []], "d": ""}`,
		"literals":      `{"t": true, "f": false, "n": null}`,
		"invalid UTF-8": "{\"device\": \"bad \xff\xfe bytes\"}",
		"duplicate key": `{"a": 1, "b": 2, "a": 3}`,
		"whitespace":    " \r\n\t{ \"a\" :\n[ 1 , 2 ] }\n",
		"nested":        strings.Repeat("[", 100) + strings.Repeat("]", 100),
	} {
		checkDecode(t, name, []byte(doc))
	}
}

// The depth guard and the error wrapping survive the rewrite.
func TestDecodeDocErrors(t *testing.T) {
	for name, doc := range map[string]string{
		"too deep":    strings.Repeat("[", 200) + strings.Repeat("]", 200),
		"truncated":   `{"a": [1, 2`,
		"bad literal": `{"a": nul}`,
		"bad number":  `{"a": 1e}`,
		"bare key":    `{a: 1}`,
		"control":     "{\"a\": \"x\x01y\"}",
		"empty":       ``,
	} {
		_, err := script.DecodeDoc([]byte(doc))
		if err == nil {
			t.Errorf("%s: decoded", name)
			continue
		}
		if !strings.Contains(err.Error(), "internal: decoding result document: ") {
			t.Errorf("%s: error %q lost the internal wrapping", name, err)
		}
	}
}

// jsonTags collects the JSON field names of every struct type reachable
// from t through fields, slices and pointers.
func jsonTags(t reflect.Type, out map[reflect.Type][]string) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		jsonTags(t.Elem(), out)
		return
	case reflect.Struct:
	default:
		return
	}
	if _, seen := out[t]; seen {
		return
	}
	var keys []string
	out[t] = nil
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		keys = append(keys, name)
		jsonTags(f.Type, out)
	}
	sort.Strings(keys)
	out[t] = keys
}

// (d) The walk knows exactly scenario.Spec's JSON fields, so a new field
// cannot silently push every script scenario onto the slow path — or be
// dropped by it.
func TestWalkerKeysMatchSpecTags(t *testing.T) {
	want := map[reflect.Type][]string{}
	jsonTags(reflect.TypeOf(scenario.Spec{}), want)
	got := script.WalkerKeys()
	for typ, keys := range want {
		if !reflect.DeepEqual(got[typ], keys) {
			t.Errorf("%v: walker keys %v, JSON tags %v", typ, got[typ], keys)
		}
	}
	for typ := range got {
		if _, ok := want[typ]; !ok {
			t.Errorf("walker decodes %v, which scenario.Spec does not contain", typ)
		}
	}
}

// FuzzSpecFromValue evaluates a script literal and, whenever the direct
// walk accepts the value, requires the round trip to decode the same
// spec.
func FuzzSpecFromValue(f *testing.F) {
	for _, s := range conform.GenerateCorpus(boundarySeed, 40) {
		f.Add(specLiteral(f, s))
	}
	for _, s := range []string{
		`{}`, `{"name": "x", "logic": [], "fab": {}}`, `{"version": 1}`, `{"version": 2}`,
		`{"extra_ics": 9007199254740993}`, `{"extra_ics": -0}`, `{"name": nil}`,
		`{"logic": [{"fab": {}}], "end_of_life": {}}`, `{"Name": "x"}`, `{"name": " <&>"}`,
	} {
		f.Add(s)
	}
	opts := script.Options{Budget: script.Budget{
		MaxSteps:      100_000,
		MaxAllocBytes: 1 << 20,
		Timeout:       500 * time.Millisecond,
	}}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := script.Eval(context.Background(), src, opts)
		if err != nil {
			return
		}
		checkWalk(t, src, res.Value)
	})
}

package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestEncoderPrimitivesMatchStdlib A/B-tests the float and string encoders
// against encoding/json over adversarial values.
func TestEncoderPrimitivesMatchStdlib(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 3.14159, 1e-6, 9.999999e-7, 1e-7,
		1e21, 9.99999e20, -1e21, 1e-300, 1e300, 150, 876.6, 1.0 / 3.0,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789,
		2.2250738585072014e-308, 0.1, 0.30000000000000004,
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("stdlib rejected %v: %v", f, err)
		}
		got, ok := AppendJSONFloat(nil, f)
		if !ok {
			t.Errorf("AppendJSONFloat rejected finite %v", f)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("float %v: got %s, stdlib %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendJSONFloat(nil, f); ok {
			t.Errorf("AppendJSONFloat accepted non-finite %v", f)
		}
	}

	strs := []string{
		"", "plain", "with space", `quote " and \ backslash`,
		"<script>&amp;</script>", "tab\tnewline\ncr\rbackspace\bformfeed\f",
		"\x00\x01\x1f\x7f", "valid ü 日本語 🌍", "invalid \x80\xfe bytes",
		"line and separators", strings.Repeat("é<", 100),
		"trailing invalid \xc3",
	}
	for _, s := range strs {
		// Encoder (not Marshal) to match the HTML-escaping default used
		// by report.Encode.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(s); err != nil {
			t.Fatalf("stdlib rejected %q: %v", s, err)
		}
		want := strings.TrimSuffix(buf.String(), "\n")
		got := AppendJSONString(nil, s)
		if string(got) != want {
			t.Errorf("string %q: got %s, stdlib %s", s, got, want)
		}
	}
}

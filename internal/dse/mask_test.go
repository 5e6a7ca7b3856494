package dse

import (
	"context"
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"act/internal/metrics"
)

// maskReference runs paretoReference over a value matrix, NaN read as
// +Inf: each row is a candidate named by its index, each column an
// objective reading the matrix.
func maskReference(vals [][]float64) []bool {
	if len(vals) == 0 {
		return []bool{}
	}
	cands := make([]metrics.Candidate, len(vals))
	for i := range cands {
		cands[i].Name = strconv.Itoa(i)
	}
	objs := make([]Objective, len(vals[0]))
	for j := range objs {
		j := j
		objs[j] = Objective{"col" + strconv.Itoa(j), func(c metrics.Candidate) float64 {
			i, _ := strconv.Atoi(c.Name)
			if v := vals[i][j]; !math.IsNaN(v) {
				return v
			}
			return math.Inf(1)
		}}
	}
	keep := make([]bool, len(vals))
	for _, c := range paretoReference(cands, objs) {
		i, _ := strconv.Atoi(c.Name)
		keep[i] = true
	}
	return keep
}

func cloneRows(vals [][]float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, row := range vals {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func sameMask(t *testing.T, what string, got, want []bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d kept=%v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestParetoMask(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		vals [][]float64
		want []bool
	}{
		{"empty", nil, []bool{}},
		{"one column keeps every minimum", [][]float64{{3}, {1}, {2}, {1}}, []bool{false, true, false, true}},
		{"one column NaN loses", [][]float64{{nan}, {5}}, []bool{false, true}},
		{"all NaN tie as +Inf", [][]float64{{nan, nan}, {nan, nan}}, []bool{true, true}},
		{"NaN point drops out in 2-D", [][]float64{{nan, nan}, {1, 1}}, []bool{false, true}},
		{"NaN point drops out in 3-D", [][]float64{{nan, 1, 1}, {1, 1, 1}}, []bool{false, true}},
		{"NaN column can still be beaten elsewhere", [][]float64{{nan, 0, 0}, {1, 1, 1}}, []bool{true, true}},
		{"-Inf dominates", [][]float64{{math.Inf(-1), 0}, {0, 0}, {inf, -1}}, []bool{true, false, true}},
		{"duplicates kept", [][]float64{{1, 2}, {1, 2}, {2, 2}}, []bool{true, true, false}},
	} {
		got, err := ParetoMask(ctx, cloneRows(tc.vals))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameMask(t, tc.name, got, tc.want)
		sameMask(t, tc.name+" (reference)", maskReference(tc.vals), tc.want)
	}

	vals := [][]float64{{nan, 1}}
	if _, err := ParetoMask(ctx, vals); err != nil || !math.IsInf(vals[0][0], 1) {
		t.Errorf("NaN not rewritten to +Inf in place: %v, err %v", vals[0][0], err)
	}
	if _, err := ParetoMask(ctx, [][]float64{{}, {}}); err == nil {
		t.Error("zero columns: expected error")
	}
	if _, err := ParetoMask(ctx, [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged rows: expected error")
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ParetoMask(done, [][]float64{{1, 2}}); err != context.Canceled {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

// fuzzAlphabet is what the compact fuzz encoding draws values from, one
// byte per value: few distinct values, so ties, duplicates and
// non-finite entries are common.
var fuzzAlphabet = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 2,
	2, 3, 5, 0.5, 1e308, -1e308, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// fuzzRows decodes fuzz bytes into rows of k values: one alphabet byte
// per value, or with raw set 8 little-endian bytes of arbitrary float64
// bits. Rows are capped so the O(n²) oracle stays fast.
func fuzzRows(data []byte, k int, raw bool) [][]float64 {
	width := 1
	if raw {
		width = 8
	}
	n := min(len(data)/(width*k), 200)
	vals := make([][]float64, n)
	for i := range vals {
		row := make([]float64, k)
		for j := range row {
			off := (i*k + j) * width
			if raw {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			} else {
				row[j] = fuzzAlphabet[data[off]%16]
			}
		}
		vals[i] = row
	}
	return vals
}

// FuzzParetoMask checks the 2-D sort path, the pairwise ND path and
// paretoReference against each other on arbitrary float rows, NaN and
// ±Inf included, and ParetoMask against all of them.
func FuzzParetoMask(f *testing.F) {
	f.Add([]byte{0, 0, 5, 5, 1, 2, 2, 1, 3, 3, 3, 3}, uint8(1), false)
	f.Add([]byte{0, 5, 5, 0, 6, 6, 1, 1, 2, 2, 4, 3, 3, 4}, uint8(2), false)
	f.Add([]byte{12, 13, 14, 15, 12, 13, 14, 15, 7, 8, 9}, uint8(0), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, cols uint8, raw bool) {
		k := 1 + int(cols%4)
		vals := fuzzRows(data, k, raw)
		ctx := context.Background()
		want := maskReference(vals)

		got, err := ParetoMask(ctx, cloneRows(vals))
		if err != nil {
			t.Fatal(err)
		}
		sameMask(t, "ParetoMask", got, want)

		coerced := cloneRows(vals)
		for _, row := range coerced {
			for j, v := range row {
				if math.IsNaN(v) {
					row[j] = math.Inf(1)
				}
			}
		}
		nd, err := paretoNDCtx(ctx, cloneRows(coerced))
		if err != nil {
			t.Fatal(err)
		}
		sameMask(t, "ND path", nd, want)
		if k == 2 {
			sameMask(t, "2-D path", pareto2D(cloneRows(coerced)), want)
		}
	})
}

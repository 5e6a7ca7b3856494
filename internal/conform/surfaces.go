// The six evaluation surfaces. Each one prices a scenario end-to-end the
// way a real client would — the library directly, the CLI's wire round
// trip, actd's single and batch /v1/footprint, the in-process columnar
// batch engine, and the sandboxed script interpreter — and hands back the
// canonical result document bytes. The differential engine asserts those
// byte slices identical, so any drift between surfaces (an encoder change,
// a lossy wire round trip, a cache returning a stale shape) shows up as a
// diff on a concrete scenario rather than a dashboard discrepancy.

package conform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"act/internal/colbatch"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/script"
)

// Surface evaluates one scenario into the canonical result document (the
// exact bytes report.Encode writes) or an error when the scenario is
// rejected.
type Surface interface {
	Name() string
	Eval(spec *scenario.Spec) ([]byte, error)
}

// Direct is the reference surface: the in-process library path, Result →
// report.Encode, with no wire format in between.
type Direct struct{}

func (Direct) Name() string { return "direct" }

func (Direct) Eval(spec *scenario.Spec) ([]byte, error) {
	res, err := spec.Result()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WireRoundTrip is the `act -format json` pipeline: marshal the spec to
// the version-1 wire envelope, parse it back, evaluate, encode. It catches
// lossy wire round trips — a field the encoder drops or the parser
// defaults differently evaluates to a different document here.
type WireRoundTrip struct{}

func (WireRoundTrip) Name() string { return "wire" }

func (WireRoundTrip) Eval(spec *scenario.Spec) ([]byte, error) {
	data, err := scenario.Marshal(spec)
	if err != nil {
		return nil, err
	}
	parsed, err := scenario.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return Direct{}.Eval(parsed)
}

// Columnar is the in-process columnar batch engine: the spec runs as a
// one-element colbatch batch, exercising the SoA decode, the preresolved
// table rows and the hand-rolled encoder. The engine's own fallback rule
// ("anything it cannot prove valid goes to the scalar oracle") is exactly
// what this surface audits: an accepted item whose document drifts from
// Direct's bytes is a columnar encoder or evaluator bug.
type Columnar struct{}

func (Columnar) Name() string { return "columnar" }

func (Columnar) Eval(spec *scenario.Spec) ([]byte, error) {
	r := colbatch.Eval([]*scenario.Spec{spec})
	defer r.Close()
	if err := r.Err(0); err != nil {
		return nil, err
	}
	// The document lives in a pooled arena reclaimed by Close.
	return bytes.Clone(r.Doc(0)), nil
}

// ScriptSurface is the sandboxed interpreter path: the spec is pasted into
// a one-expression program as a map literal and priced through the
// footprint_doc host call, which returns the canonical result document as
// a script string. Any drift at the interpreter's host boundary (map
// literal parse, the direct walk from script map to spec or its strict
// round-trip fallback, document pass-through) shows up here as a byte
// diff against Direct.
type ScriptSurface struct{}

func (ScriptSurface) Name() string { return "script" }

func (ScriptSurface) Eval(spec *scenario.Spec) ([]byte, error) {
	data, err := scenario.Marshal(spec)
	if err != nil {
		return nil, err
	}
	res, err := script.Eval(context.Background(), "footprint_doc("+string(data)+")", script.Options{})
	if err != nil {
		return nil, err
	}
	doc, ok := res.Value.(string)
	if !ok {
		return nil, fmt.Errorf("conform: footprint_doc returned %T, want string", res.Value)
	}
	return []byte(doc), nil
}

// HTTPError is a non-200 answer from an actd surface, carrying the typed
// field path actd extracted so mutant classification can assert on it.
type HTTPError struct {
	Code    int
	Field   string
	Message string
}

func (e *HTTPError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("http %d: %s: %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("http %d: %s", e.Code, e.Message)
}

// errorBody mirrors actd's unified v1 error envelope:
// {"error":{"code","field","message","request_id"}}.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Field   string `json:"field,omitempty"`
		Message string `json:"message"`
	} `json:"error"`
}

// httpSingle POSTs one scenario object to actd's /v1/footprint.
type httpSingle struct {
	client *http.Client
	url    string
}

func (httpSingle) Name() string { return "actd-single" }

func (h httpSingle) Eval(spec *scenario.Spec) ([]byte, error) {
	data, err := scenario.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return h.post(data)
}

func (h httpSingle) post(body []byte) ([]byte, error) {
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if jerr := json.Unmarshal(out, &eb); jerr != nil || eb.Error.Code == "" {
			return nil, &HTTPError{Code: resp.StatusCode, Message: string(out)}
		}
		return nil, &HTTPError{Code: resp.StatusCode, Field: eb.Error.Field, Message: eb.Error.Message}
	}
	return out, nil
}

// httpBatchOne wraps the scenario in a one-element batch array and POSTs
// it, then peels the single element back out of the response array. The
// batch writer joins raw cached documents, so the element bytes plus the
// trailing newline must equal the single-scenario document exactly.
type httpBatchOne struct {
	client *http.Client
	url    string
}

func (httpBatchOne) Name() string { return "actd-batch" }

func (h httpBatchOne) Eval(spec *scenario.Spec) ([]byte, error) {
	data, err := scenario.Marshal(spec)
	if err != nil {
		return nil, err
	}
	body := append(append([]byte("["), bytes.TrimRight(data, "\n")...), ']')
	out, err := httpSingle(h).post(body)
	if err != nil {
		return nil, err
	}
	elems, err := splitBatch(out)
	if err != nil {
		return nil, err
	}
	if len(elems) != 1 {
		return nil, fmt.Errorf("conform: batch of 1 answered %d elements", len(elems))
	}
	return append(elems[0], '\n'), nil
}

// splitBatch decodes a batch response into its raw element documents.
// json.RawMessage preserves each element's bytes verbatim (indentation
// included), which is what the byte-identity comparison needs.
func splitBatch(body []byte) ([]json.RawMessage, error) {
	var elems []json.RawMessage
	if err := json.Unmarshal(body, &elems); err != nil {
		return nil, fmt.Errorf("conform: batch response is not a JSON array: %w", err)
	}
	return elems, nil
}

// Perturbed wraps a surface with a spec mutation applied before
// evaluation, modeling silent model drift on one surface only. The
// acceptance test injects an off-by-one yield here and requires the
// differential engine to catch and shrink it.
type Perturbed struct {
	Inner  Surface
	Mutate func(*scenario.Spec)
}

func (p Perturbed) Name() string { return p.Inner.Name() + "+perturbed" }

func (p Perturbed) Eval(spec *scenario.Spec) ([]byte, error) {
	clone, err := cloneSpec(spec)
	if err != nil {
		return nil, err
	}
	p.Mutate(clone)
	return p.Inner.Eval(clone)
}

// cloneSpec deep-copies a spec through its own wire format.
func cloneSpec(spec *scenario.Spec) (*scenario.Spec, error) {
	data, err := scenario.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return scenario.Unmarshal(data)
}

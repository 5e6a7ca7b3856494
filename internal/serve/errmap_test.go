package serve

// The v1 error contract, pinned three ways: writeError's classification of
// raw error values into the envelope's closed code set, the HTTP status +
// code + field path actually served for a representative request of each
// failure class on every route, and a frozen golden body per error class.
// The conformance harness (internal/conform) exercises the same contract
// generatively; these tables are the human-readable specification of it.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"act/internal/acterr"
	"act/internal/fleet"
)

func TestWriteErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		wantCode  int
		wantClass string
		wantField string
	}{
		{"plain-error", errors.New("disk on fire"), http.StatusInternalServerError, codeInternal, ""},
		{"transient-after-retries", acterr.Transient(errors.New("pool sick")), http.StatusInternalServerError, codeInternal, ""},
		{"wrapped-transient", fmt.Errorf("eval: %w", acterr.Transient(errors.New("x"))), http.StatusInternalServerError, codeInternal, ""},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, codeTimeout, ""},
		{"wrapped-deadline", fmt.Errorf("batch: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, codeTimeout, ""},
		{"degraded-store", fleet.ErrDegraded, http.StatusServiceUnavailable, codeDegraded, ""},
		{"wrapped-degraded", fmt.Errorf("fleet: write-ahead log: %w", fleet.ErrDegraded), http.StatusServiceUnavailable, codeDegraded, ""},
		{"invalid-field", acterr.Invalid("usage.app_hours", "non-positive"), http.StatusBadRequest, codeInvalidArgument, "usage.app_hours"},
		{"invalid-no-field", acterr.Invalid("", "empty request"), http.StatusBadRequest, codeInvalidArgument, ""},
		{"prefixed-batch-element", acterr.Prefix("[2]", acterr.Invalid("node", "unknown")), http.StatusBadRequest, codeInvalidArgument, "[2].node"},
		{"unknown-node-sentinel", fmt.Errorf("fab: %w", acterr.ErrUnknownNode), http.StatusBadRequest, codeInvalidArgument, ""},
		{"unsupported-version", &acterr.UnsupportedVersionError{Version: 9}, http.StatusBadRequest, codeUnsupportedVersion, ""},
	}
	s := New(Config{Logger: discardLogger()})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/footprint", nil)
			s.writeError(w, r, c.err)
			if w.Code != c.wantCode {
				t.Errorf("code = %d, want %d", w.Code, c.wantCode)
			}
			e := decodeError(t, w.Body.Bytes())
			if e.Code != c.wantClass {
				t.Errorf("error code = %q, want %q", e.Code, c.wantClass)
			}
			if e.Field != c.wantField {
				t.Errorf("field = %q, want %q", e.Field, c.wantField)
			}
			if e.Message == "" {
				t.Error("error body has no message")
			}
		})
	}
}

// TestFootprintStatusMapping drives one request per failure class through
// the real handler stack and pins the served status, envelope code and
// field path.
func TestFootprintStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 3, MaxBodyBytes: 4096})
	url := ts.URL + "/v1/footprint"

	valid := `{"name": "ok", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`
	cases := []struct {
		name      string
		body      string
		wantCode  int
		wantClass string
		wantField string
	}{
		{"valid", valid, http.StatusOK, "", ""},
		{"unknown-node", strings.Replace(valid, `"7nm"`, `"quantum"`, 1), http.StatusBadRequest, codeInvalidArgument, "logic[0]"},
		{"bad-dram-tech", `{"name": "x", "dram": [{"name": "m", "technology": "sram-9000", "capacity_gb": 8}], "usage": {"power_w": 5, "app_hours": 100}}`, http.StatusBadRequest, codeInvalidArgument, "dram[0].technology"},
		{"eval-time-bad-field", strings.Replace(valid, `"area_mm2": 100`, `"area_mm2": -1`, 1), http.StatusBadRequest, codeInvalidArgument, "logic[0].area_mm2"},
		{"app-hours-past-lifetime", strings.Replace(valid, `"app_hours": 100`, `"app_hours": 1e6`, 1), http.StatusBadRequest, codeInvalidArgument, "usage.app_hours"},
		{"unsupported-version", `{"version": 2, ` + valid[1:], http.StatusBadRequest, codeUnsupportedVersion, ""},
		{"unknown-wire-field", `{"bogus": 1, ` + valid[1:], http.StatusBadRequest, codeInvalidArgument, ""},
		{"malformed-json", `{"name": "x"`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"empty-body", ``, http.StatusBadRequest, codeInvalidArgument, ""},
		{"empty-batch", `[]`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"batch-bad-element", `[` + valid + `, {"name": "broken"}]`, http.StatusBadRequest, codeInvalidArgument, "[1]"},
		{"batch-bad-element-field", `[` + valid + `, ` + strings.Replace(valid, `"app_hours": 100`, `"app_hours": -1`, 1) + `]`, http.StatusBadRequest, codeInvalidArgument, "[1].usage.app_hours"},
		{"batch-over-max", `[` + valid + `,` + valid + `,` + valid + `,` + valid + `]`, http.StatusRequestEntityTooLarge, codeTooLarge, ""},
		{"body-over-max", `{"pad": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, ""},
	}
	// Messages pinned byte for byte: a single object's evaluation error
	// names the item without a batch index in its field path.
	wantMsg := map[string]string{
		"eval-time-bad-field": `parsweep: item 0: scenario: invalid spec field logic[0].area_mm2: logic "soc": non-positive die area -1 mm²`,
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := postJSON(t, url, []byte(c.body))
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status = %d, want %d (body %.200s)", resp.StatusCode, c.wantCode, data)
			}
			if c.wantCode == http.StatusOK {
				return
			}
			e := decodeError(t, data)
			if e.Code != c.wantClass {
				t.Errorf("error code = %q, want %q", e.Code, c.wantClass)
			}
			if e.Field != c.wantField {
				t.Errorf("field = %q, want %q", e.Field, c.wantField)
			}
			if want, ok := wantMsg[c.name]; ok && e.Message != want {
				t.Errorf("message = %q, want %q", e.Message, want)
			}
		})
	}

	// Method misuse is the router's 405, not a handler error.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/footprint = %d, want 405", resp.StatusCode)
	}
}

// TestErrorContractAllRoutes extends the contract table to every v1 route:
// one representative failing request per route and failure class, pinning
// status, envelope code and field path. The fleet/summary rows double as
// the query-binder regression table — ?top=x, ?top=-3 and ?by=color must
// come back as 400s rooted at query.top / query.by.
func TestErrorContractAllRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 3, MaxBodyBytes: 4096})
	s.AttachExporter(&fakeExporter{interval: 10e9, rate: 0})

	missingRegion := `{"id":"d1","deployed":"2024-01-01","utilization":0.5,"scenario":{"name":"x","logic":[{"name":"soc","area_mm2":10,"node":"7nm"}],"usage":{"power_w":5,"app_hours":100}}}`
	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		wantCode  int
		wantClass string
		wantField string
	}{
		{"sweep-malformed", "POST", "/v1/sweep", `{`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"sweep-over-max", "POST", "/v1/sweep", `{"pad":"` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge, codeTooLarge, ""},
		{"ingest-missing-region", "POST", "/v1/fleet/devices", missingRegion, http.StatusBadRequest, codeInvalidArgument, "device[0].region"},
		{"summary-top-not-a-number", "GET", "/v1/fleet/summary?top=x", "", http.StatusBadRequest, codeInvalidArgument, "query.top"},
		{"summary-top-negative", "GET", "/v1/fleet/summary?top=-3", "", http.StatusBadRequest, codeInvalidArgument, "query.top"},
		{"summary-by-unknown", "GET", "/v1/fleet/summary?by=color", "", http.StatusBadRequest, codeInvalidArgument, "query.by"},
		{"delete-absent-device", "DELETE", "/v1/fleet/devices/ghost", "", http.StatusNotFound, codeNotFound, ""},
		{"export-put-zero-interval", "PUT", "/v1/export/config", `{"version":1,"interval_ms":0}`, http.StatusBadRequest, codeInvalidArgument, "interval_ms"},
		{"export-put-negative-rate", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"rate_bytes_per_sec":-1}`, http.StatusBadRequest, codeInvalidArgument, "rate_bytes_per_sec"},
		{"export-put-urls-readonly", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"urls":["http://x"]}`, http.StatusBadRequest, codeInvalidArgument, "urls"},
		{"export-put-unknown-field", "PUT", "/v1/export/config", `{"version":1,"interval_ms":1000,"bogus":true}`, http.StatusBadRequest, codeInvalidArgument, ""},
		{"export-put-stale-version", "PUT", "/v1/export/config", `{"version":99,"interval_ms":1000}`, http.StatusConflict, codeConflict, "version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var body *strings.Reader
			if c.body != "" {
				body = strings.NewReader(c.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(c.method, ts.URL+c.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data := readAll(t, resp)
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status = %d, want %d (body %.200s)", resp.StatusCode, c.wantCode, data)
			}
			e := decodeError(t, []byte(data))
			if e.Code != c.wantClass {
				t.Errorf("error code = %q, want %q", e.Code, c.wantClass)
			}
			if e.Field != c.wantField {
				t.Errorf("field = %q, want %q", e.Field, c.wantField)
			}
			if e.RequestID == "" {
				t.Error("error body missing request_id")
			}
		})
	}
}

var updateErrorGolden = flag.Bool("update-error-golden", false,
	"rewrite internal/serve/testdata/errors/*.golden from the current envelope rendering")

// TestErrorEnvelopeGolden freezes one envelope body per error class. The
// request id is preset (the middleware honors sane client-provided
// X-Request-Id values) so the bytes are deterministic. A diff here is an
// API-contract change: clients parse these bodies.
func TestErrorEnvelopeGolden(t *testing.T) {
	s := New(Config{Logger: discardLogger()})
	cases := []struct {
		class string
		write func(w http.ResponseWriter, r *http.Request)
	}{
		{codeInvalidArgument, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, acterr.Invalid("query.top", "cannot parse top-K %q", "x"))
		}},
		{codeUnsupportedVersion, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, &acterr.UnsupportedVersionError{Version: 9})
		}},
		{codeTooLarge, func(w http.ResponseWriter, r *http.Request) {
			s.writeErrorCode(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "",
				"batch of 4 scenarios exceeds the limit of 3")
		}},
		{codeNotFound, func(w http.ResponseWriter, r *http.Request) {
			s.writeErrorCode(w, r, http.StatusNotFound, codeNotFound, "", `no device "ghost"`)
		}},
		{codeConflict, func(w http.ResponseWriter, r *http.Request) {
			s.writeErrorCode(w, r, http.StatusConflict, codeConflict, "version",
				"export config changed since it was read; GET it again")
		}},
		{codeOverloaded, func(w http.ResponseWriter, r *http.Request) {
			s.writeErrorCode(w, r, http.StatusTooManyRequests, codeOverloaded, "",
				"overloaded: admission queue is full")
		}},
		{codeUnavailable, func(w http.ResponseWriter, r *http.Request) {
			s.writeErrorCode(w, r, http.StatusServiceUnavailable, codeUnavailable, "",
				"server is draining")
		}},
		{codeDegraded, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, fmt.Errorf("fleet: write-ahead log: %w", fleet.ErrDegraded))
		}},
		{codeTimeout, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, context.DeadlineExceeded)
		}},
		{codeInternal, func(w http.ResponseWriter, r *http.Request) {
			s.writeError(w, r, errors.New("disk on fire"))
		}},
	}
	for _, c := range cases {
		t.Run(c.class, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/v1/test", nil)
			r = r.WithContext(withRequestID(r.Context(), "golden-"+c.class))
			w := httptest.NewRecorder()
			c.write(w, r)
			path := filepath.Join("testdata", "errors", c.class+".golden")
			if *updateErrorGolden {
				if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update-error-golden): %v", err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("error envelope drifted from its frozen golden.\n"+
					"If intentional, regenerate with -update-error-golden and call it out in review.\n\ngot:\n%s\nwant:\n%s",
					w.Body.Bytes(), want)
			}
		})
	}

	// The golden set and the closed code set must stay in lockstep: a new
	// code needs a frozen body, a removed one needs its golden deleted.
	ents, err := os.ReadDir(filepath.Join("testdata", "errors"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(cases) {
		t.Errorf("testdata/errors has %d goldens, the closed code set has %d classes", len(ents), len(cases))
	}
}

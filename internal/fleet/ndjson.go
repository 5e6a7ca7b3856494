// The fleet wire format. One device is one JSON object; a fleet file or
// ingest request body is a stream of them — NDJSON in practice, though the
// decoder accepts any concatenation of JSON objects (pretty-printed
// objects included, since the stream decoder does not care about
// newlines):
//
//	{"id":"rack1-0","region":"united-states","deployed":"2024-01-01",
//	 "retired":"2027-01-01","utilization":0.5,"scenario":{...}}
//
// Dates are "2006-01-02" (midnight UTC) or RFC 3339. retired defaults to
// deployed + the scenario's lifetime (LT); utilization defaults to 1. The
// embedded scenario is the ordinary version-1 scenario document.

package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"act/internal/acterr"
	"act/internal/scenario"
	"act/internal/units"
)

// DeviceSpec is the raw wire form of one fleet device.
type DeviceSpec struct {
	ID          string          `json:"id"`
	Region      string          `json:"region"`
	Deployed    string          `json:"deployed"`
	Retired     string          `json:"retired,omitempty"`
	Utilization *float64        `json:"utilization,omitempty"`
	Scenario    json.RawMessage `json:"scenario"`
}

// ParseDevice decodes and validates one wire-form device. Failures are
// typed acterr.InvalidSpecError values carrying the offending field path.
func ParseDevice(data []byte) (*Device, error) {
	var ds DeviceSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ds); err != nil {
		return nil, fmt.Errorf("fleet: %w", envelopeError(err))
	}
	return ds.Device()
}

// envelopeError types a failure to decode the device envelope into a
// DeviceSpec. An unknown or wrongly typed field is the client's mistake,
// so it becomes an acterr.InvalidSpecError naming the field ("" when the
// record is not an object at all); anything else keeps its class.
func envelopeError(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		return &acterr.InvalidSpecError{Field: te.Field, Err: err}
	}
	// encoding/json reports an unknown field only as text.
	if name, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		if field, uerr := strconv.Unquote(name); uerr == nil {
			return &acterr.InvalidSpecError{Field: field, Err: err}
		}
	}
	return err
}

// Device validates the wire form and applies the documented defaults.
func (ds *DeviceSpec) Device() (*Device, error) {
	var (
		dev Device
		sd  scenario.Decoder
	)
	if err := ds.fill(&dev, &sd); err != nil {
		return nil, err
	}
	return &dev, nil
}

// fill is Device into dev, decoding the scenario with sd.
func (ds *DeviceSpec) fill(dev *Device, sd *scenario.Decoder) error {
	if ds.ID == "" {
		return fmt.Errorf("fleet: %w", acterr.Invalid("id", "missing device id"))
	}
	if len(ds.Scenario) == 0 {
		return fmt.Errorf("fleet: %w", acterr.Invalid("scenario", "missing scenario"))
	}
	spec, err := sd.Decode(ds.Scenario)
	if err != nil {
		return fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	deployed, err := parseDate("deployed", ds.Deployed)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	var retired time.Time
	if ds.Retired == "" {
		retired = deployed.Add(units.Years(spec.Lifetime()))
	} else if retired, err = parseDate("retired", ds.Retired); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	util := 1.0
	if ds.Utilization != nil {
		util = *ds.Utilization
	}
	*dev = Device{
		ID:          ds.ID,
		Region:      ds.Region,
		Deployed:    deployed,
		Retired:     retired,
		Utilization: util,
		Spec:        spec,
	}
	if err := dev.Validate(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// parseDate accepts the wire date form or full RFC 3339. Only a string
// of the wire form's length can match it, and no RFC 3339 string is that
// short, so the length picks the one layout to try.
func parseDate(field, s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, acterr.Invalid(field, "missing date")
	}
	layout := time.RFC3339
	if len(s) == len(dateFormat) {
		layout = dateFormat
	}
	t, err := time.Parse(layout, s)
	if err != nil {
		return time.Time{}, acterr.Invalid(field, "cannot parse date %q (want %s or RFC 3339)", s, dateFormat)
	}
	return t, nil
}

// IngestResult summarizes one ingest stream.
type IngestResult struct {
	// Upserted counts devices applied, Replaced the subset that replaced
	// an existing id.
	Upserted int `json:"upserted"`
	Replaced int `json:"replaced"`
}

// DeviceDecoder reads a device stream — any concatenation of JSON
// objects — one record at a time, decoding each envelope straight into a
// DeviceSpec in one strict pass. The registry's ingest and the cluster
// coordinator share it, so both see the same records and the same errors.
type DeviceDecoder struct {
	dec  *json.Decoder
	next int
}

// NewDeviceDecoder reads records from rd.
func NewDeviceDecoder(rd io.Reader) *DeviceDecoder {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return &DeviceDecoder{dec: dec}
}

// Next decodes the next record into ds, which it resets first (keeping the
// scenario buffer for reuse, so ds.Scenario is only valid until the next
// call), and returns the record's zero-based stream index. err is io.EOF
// at a clean end of stream, or a typed stream fault — malformed JSON, or a
// read failure such as a body-size limit — that ends the stream. bad
// reports a record whose envelope does not decode (an unknown or wrongly
// typed field), typed and rooted at its index; the stream stays usable,
// and ds still holds whatever fields did decode.
func (d *DeviceDecoder) Next(ds *DeviceSpec) (i int, bad, err error) {
	i = d.next
	*ds = DeviceSpec{Scenario: ds.Scenario[:0]}
	if err := d.dec.Decode(ds); err != nil {
		if errors.Is(err, io.EOF) {
			return i, nil, io.EOF
		}
		var syn *json.SyntaxError
		if errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) {
			return i, nil, fmt.Errorf("fleet: %w",
				acterr.Prefix(fmt.Sprintf("device[%d]", i), acterr.Invalid("", "malformed JSON: %v", err)))
		}
		if bad := envelopeError(err); acterr.IsInvalid(bad) {
			d.next++
			return i, prefixRecord(i, bad), nil
		}
		// An IO-class failure (a read fault, a body-size limit) is not the
		// stream's syntax; keep its type so callers can classify it.
		return i, nil, fmt.Errorf("fleet: device[%d]: %w", i, err)
	}
	d.next++
	return i, nil, nil
}

// InputOffset is the stream offset just past the last record Next read.
func (d *DeviceDecoder) InputOffset() int64 { return d.dec.InputOffset() }

// IngestNDJSON reads a stream of device objects and upserts each in
// order. Ingest stops at the first failure: the error carries the
// zero-based record index in its field path ("device[3].retired") and the
// result reports how many records were applied before it — applied
// records stay applied.
//
// maxDevices, when positive, bounds the stream; exceeding it returns
// ErrTooMany wrapped with the limit.
func (r *Registry) IngestNDJSON(rd io.Reader, maxDevices int) (IngestResult, error) {
	var (
		res IngestResult
		ds  DeviceSpec
		dev Device
		sd  scenario.Decoder
	)
	dec := NewDeviceDecoder(rd)
	for {
		i, bad, err := dec.Next(&ds)
		if err != nil {
			if err == io.EOF {
				return res, nil
			}
			return res, err
		}
		if maxDevices > 0 && i >= maxDevices {
			return res, fmt.Errorf("fleet: %w: limit %d", ErrTooMany, maxDevices)
		}
		if bad != nil {
			return res, bad
		}
		if err := ds.fill(&dev, &sd); err != nil {
			return res, prefixRecord(i, err)
		}
		bom, err := r.boms.forSpec(dev.Spec)
		if err != nil {
			return res, prefixRecord(i, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err)))
		}
		replaced, err := r.upsert(&dev, bom)
		if err != nil {
			return res, prefixRecord(i, err)
		}
		res.Upserted++
		if replaced {
			res.Replaced++
		}
	}
}

// ErrTooMany reports an ingest stream longer than the configured bound.
var ErrTooMany = errors.New("too many devices in one ingest")

// prefixRecord re-roots a record's validation error under its stream
// index. Non-validation failures (a write-ahead-log fault, an injected
// transient) keep their class — they are not the client's to fix — and
// gain the index as plain context.
func prefixRecord(i int, err error) error {
	if acterr.IsInvalid(err) {
		return fmt.Errorf("fleet: %w", acterr.Prefix(fmt.Sprintf("device[%d]", i), err))
	}
	return fmt.Errorf("device[%d]: %w", i, err)
}

// The versioned wire format. A scenario's JSON form is the public contract
// shared verbatim by cmd/act and the actd service: an object carrying an
// explicit `"version": 1` envelope field. Readers accept a missing version
// as 1 (every pre-envelope scenario is a valid version-1 scenario) and
// reject any other version with a typed error, so future format changes
// can be detected instead of misparsed. The exact byte layout is frozen by
// the golden tests in wire_test.go.

package scenario

import (
	"bytes"
	"fmt"
	"io"

	"encoding/json"

	"act/internal/acterr"
)

// Version is the wire-format version this library reads and writes.
const Version = 1

// Marshal renders the spec in its canonical wire form: the version-1
// envelope with the version made explicit, two-space indented, trailing
// newline. This is the inverse of Unmarshal and the format cmd/act
// -example emits.
func Marshal(s *Spec) ([]byte, error) {
	c := *s
	if err := c.checkVersion(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// MarshalCompact renders the same version-1 document as Marshal without
// the indentation and trailing newline: identical fields and values, so
// Unmarshal reads either form back to the same spec. It is the form the
// fleet registry persists, one copy per distinct BoM.
func MarshalCompact(s *Spec) ([]byte, error) {
	c := *s
	if err := c.checkVersion(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return data, nil
}

// Unmarshal decodes a single wire-form scenario. It is Parse over bytes.
func Unmarshal(data []byte) (*Spec, error) {
	return Parse(bytes.NewReader(data))
}

// Decoder decodes a sequence of wire-form scenarios, one per Decode call,
// exactly as Unmarshal decodes each, but reusing one JSON decoder's buffer
// and parse state across calls where Unmarshal builds them afresh — about
// a dozen allocations per document. A fleet ingest stream carries one
// scenario per device. The zero Decoder is ready to use; it is not safe
// for concurrent use.
type Decoder struct {
	src bytes.Reader
	dec *json.Decoder
	// fed counts the bytes handed to dec since it was made.
	fed int64
}

// Decode is Unmarshal(data).
func (d *Decoder) Decode(data []byte) (*Spec, error) {
	d.src.Reset(data)
	if d.dec == nil {
		d.dec, d.fed = newStrictDecoder(&d.src), 0
	}
	d.fed += int64(len(data))
	s, err := decode(d.dec)
	// The JSON decoder is reused only from a clean document boundary: after
	// a failure, or with bytes of data left unread, the next call starts a
	// fresh one.
	if err != nil || d.dec.InputOffset() != d.fed {
		d.dec = nil
	}
	return s, err
}

// ParseRequest decodes a footprint request body that is either one
// scenario object or a batch array of them — the shape POST /v1/footprint
// accepts. batch reports which form was seen so the response can mirror
// it. Element-level failures carry the batch index in their field path
// ("[3].logic[0].node").
func ParseRequest(r io.Reader) (specs []*Spec, batch bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("scenario: reading request: %w", err)
	}
	i := 0
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	if i == len(data) {
		return nil, false, fmt.Errorf("scenario: %w", acterr.Invalid("", "empty request body"))
	}
	if data[i] != '[' {
		s, err := Unmarshal(data)
		if err != nil {
			return nil, false, err
		}
		return []*Spec{s}, false, nil
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, true, fmt.Errorf("scenario: batch: %w", err)
	}
	if len(raws) == 0 {
		return nil, true, fmt.Errorf("scenario: %w", acterr.Invalid("", "empty batch"))
	}
	specs = make([]*Spec, len(raws))
	for j, raw := range raws {
		s, err := Unmarshal(raw)
		if err != nil {
			return nil, true, fmt.Errorf("scenario: batch: %w", acterr.Prefix(fmt.Sprintf("[%d]", j), err))
		}
		specs[j] = s
	}
	return specs, true, nil
}

// isJSONSpace reports JSON whitespace (RFC 8259 §2).
func isJSONSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

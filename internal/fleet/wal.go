// Write-ahead log frames. Every mutation is framed and appended to the
// segmented WAL (walseg.go) before the shard's in-memory state changes,
// so a crash between a snapshot and now loses nothing: recovery restores
// the snapshot, then replays the segments.
//
// Frame layout (little-endian, see codec.go):
//
//	u32 payload length | payload | u64 FNV-64a checksum of the payload
//
// The payload's first byte is the operation:
//
//	1 upsert    — one encoded record, contribution included, applied
//	              verbatim on replay (no re-evaluation, so replay lands on
//	              byte-identical totals)
//	2 remove    — the device id
//	3 recompute — no body; replay re-runs the model-table recomputation at
//	              this point in the history
//	4 seal      — terminates a finished segment (walseg.go)
//
// Appends happen under the owning shard's lock (fleet.go), which fixes
// the relative order of operations on any one device; the appender's own
// mutex serializes frames from different shards.
//
// readFrame tells a torn tail — a frame cut short by a crash mid-append,
// io.ErrUnexpectedEOF — from a frame that is complete but fails its
// checksum, which is corruption.

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
)

const (
	opUpsert    = 1
	opRemove    = 2
	opRecompute = 3
	// opSeal terminates a finished WAL segment (walseg.go): its payload is
	// the segment's frame count and rolling checksum. It never reaches
	// applyFrame — segment replay consumes it as the end-of-segment marker.
	opSeal = 4
)

// WALAppender is the write-ahead sink a Registry logs mutations to, in
// practice the segmented on-disk WAL (walseg.go). Append must be atomic —
// a frame is either fully acknowledged or reported failed with the log
// positioned to accept the next frame — and safe for concurrent use.
type WALAppender interface {
	Append(payload []byte) error
}

// errCorruptFrame classifies a frame that is structurally complete but
// wrong — checksum mismatch, implausible length, empty payload. Distinct
// from a torn tail (io.EOF / io.ErrUnexpectedEOF), which is the expected
// signature of a crash mid-append: torn tails are truncated away, corrupt
// frames quarantine the segment.
var errCorruptFrame = errors.New("fleet: corrupt wal frame")

// frameBytes wraps a payload in the wire frame: u32 length | payload |
// u64 FNV-64a of the payload. Append and segment replay share it so the
// rolling segment checksum hashes identical bytes on both sides.
func frameBytes(payload []byte) []byte {
	frame := make([]byte, 0, len(payload)+12)
	frame = appendU32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return appendU64(frame, fnvAdd(fnvOffset64, payload))
}

// recordSlack sizes an upsert payload beyond its spec bytes, which
// dominate it: room for a typical id, region and node plus the fixed-width
// fields, so encodeRecord rarely grows the buffer.
const recordSlack = 160

func encodeUpsert(rec *record) []byte {
	b := make([]byte, 1, 1+len(rec.bom.specJSON)+recordSlack)
	b[0] = opUpsert
	return encodeRecord(b, rec)
}

func encodeRemove(id string) []byte {
	b := []byte{opRemove}
	return appendString(b, id)
}

// AttachWAL starts logging every subsequent mutation to a. Attach only
// after the state a recovery loaded is complete. Passing nil detaches.
func (r *Registry) AttachWAL(a WALAppender) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = a
}

// readFrame reads one complete frame and verifies its checksum. io.EOF at
// the frame boundary means a clean end; io.ErrUnexpectedEOF anywhere
// inside the frame means a torn tail.
func readFrame(rd io.Reader) (payload []byte, frameLen int64, err error) {
	d := &reader{r: rd}
	payload = d.bytes()
	sum := d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	if len(payload) == 0 {
		return nil, 0, fmt.Errorf("%w: empty frame", errCorruptFrame)
	}
	if fnvAdd(fnvOffset64, payload) != sum {
		return nil, 0, fmt.Errorf("%w: frame checksum mismatch", errCorruptFrame)
	}
	return payload, int64(len(payload)) + 12, nil
}

// applyFrame performs one logged operation without re-logging it. The
// caller write-holds r.mu.
func (r *Registry) applyFrame(ctx context.Context, payload []byte) error {
	op, body := payload[0], payload[1:]
	switch op {
	case opUpsert:
		rec, err := decodeRecord(&reader{r: bytes.NewReader(body)}, &r.boms)
		if err != nil {
			return err
		}
		_, err = r.apply(rec, false)
		return err
	case opRemove:
		d := &reader{r: bytes.NewReader(body)}
		id := d.str()
		if d.err != nil {
			return d.err
		}
		_, err := r.remove(id, false)
		return err
	case opRecompute:
		return r.recomputeLocked(ctx)
	default:
		return fmt.Errorf("unknown wal op %d", op)
	}
}

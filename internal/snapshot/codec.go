// Package snapshot implements the durable checkpoint file format the
// simulator uses to survive preemption: a versioned, checksummed
// container of named sections, written atomically (temp file + fsync +
// rename) so a crash mid-write can never leave a file that restores.
//
// The format is deliberately paranoid on the read side: a stale
// version, a torn write, a truncation or a flipped bit is *detected*
// and surfaces as a typed error, so callers degrade to
// restart-from-zero instead of resuming silently corrupted state.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc is an append-only little-endian encoder for section payloads.
// The zero value is ready to use.
type Enc struct {
	b []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// I64 appends an int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Raw appends bytes with no length prefix (fixed-width fields).
func (e *Enc) Raw(b []byte) { e.b = append(e.b, b...) }

// Dec decodes a section payload written by Enc. Errors are sticky:
// after the first overrun every accessor returns zero values and Err
// reports what went wrong, so call sites read fields linearly and
// check once at the end.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps payload b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error (nil when all reads were in
// bounds).
func (d *Dec) Err() error { return d.err }

// Done reports an error unless the payload was fully consumed — a
// length mismatch between writer and reader is corruption, not slack.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: section truncated at offset %d", ErrCorrupt, d.off)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Enc.Int.
func (d *Dec) Int() int {
	v := d.I64()
	if v > math.MaxInt || v < math.MinInt {
		d.fail()
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	return string(d.take(n))
}

// Raw reads n bytes with no length prefix.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

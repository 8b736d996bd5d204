package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// File layout (all integers little-endian):
//
//	magic    [4]byte  "DSNP"
//	version  u32      — NOT covered by any CRC, so a version bump is
//	                    reported as ErrVersion, never as corruption
//	epoch    u64      — lease epoch (fencing token) stamped by the
//	                    writer's owner; 0 outside cluster operation
//	epochCRC u32      — CRC32-C over the epoch word alone, so a bit
//	                    flip in the epoch cannot silently promote a
//	                    stale snapshot during takeover
//	count    u32      — number of sections
//	count × section:
//	    nameLen u32
//	    name    [nameLen]byte
//	    payLen  u32
//	    payload [payLen]byte
//	    crc     u32  — CRC32-C over name ++ payload
//
// Nothing may follow the last section: trailing bytes are corruption
// (they usually mean a torn or doubled write).
const (
	// Version is the current snapshot format version. Bump on any
	// incompatible change to section encodings; old files then fail
	// restore with ErrVersion and the caller restarts from zero.
	// v2 added the lease-epoch word to the header; v3 stores each
	// cached loop's decision inputs instead of its analysis.
	Version = 3

	// HeaderLen is the fixed byte length before the first section:
	// magic + version + epoch + epochCRC + count.
	HeaderLen = 4 + 4 + 8 + 4 + 4

	magic = "DSNP"

	// maxSections and maxSectionBytes bound what a header can claim,
	// so a corrupted length field cannot drive a huge allocation.
	maxSections     = 1 << 10
	maxSectionBytes = 1 << 30
)

// Typed restore errors. Callers use errors.Is to attribute the
// degradation cause; all of them mean "do not resume from this file".
var (
	// ErrBadMagic: the file is not a snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion: a well-formed snapshot from an incompatible format
	// version (stale file after an upgrade, or a newer writer).
	ErrVersion = errors.New("snapshot: version mismatch")
	// ErrCorrupt: structural damage — bad lengths, CRC failure,
	// trailing garbage, or a section payload that does not decode.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrTruncated: the file ends before the header says it should
	// (classic torn write). ErrTruncated wraps ErrCorrupt so a single
	// errors.Is(err, ErrCorrupt) catches both.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrCorrupt)
	// ErrMismatch: the snapshot is intact but belongs to a different
	// program or configuration than the one restoring it.
	ErrMismatch = errors.New("snapshot: program/config mismatch")
	// ErrEpochSkew: the snapshot's header epoch disagrees with the
	// epoch the caller expected (a checkpoint file renamed or replayed
	// across lease boundaries). Never resume from such a file.
	ErrEpochSkew = errors.New("snapshot: lease-epoch skew")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sectionCRC(name string, payload []byte) uint32 {
	c := crc32.Update(0, castagnoli, []byte(name))
	return crc32.Update(c, castagnoli, payload)
}

func epochCRC(epoch uint64) uint32 {
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], epoch)
	return crc32.Update(0, castagnoli, eb[:])
}

// Writer accumulates named sections and writes them out atomically.
type Writer struct {
	// Epoch is the lease epoch (fencing token) stamped into the header.
	// Leave zero outside cluster operation.
	Epoch uint64

	names    []string
	payloads [][]byte
}

// Add appends a section. Names should be unique; the reader indexes by
// name and duplicate names would shadow each other.
func (w *Writer) Add(name string, payload []byte) {
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, payload)
}

// Bytes serializes the snapshot container.
func (w *Writer) Bytes() []byte {
	n := HeaderLen
	for i, name := range w.names {
		n += 12 + len(name) + len(w.payloads[i])
	}
	b := make([]byte, 0, n)
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint64(b, w.Epoch)
	b = binary.LittleEndian.AppendUint32(b, epochCRC(w.Epoch))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(w.names)))
	for i, name := range w.names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w.payloads[i])))
		b = append(b, w.payloads[i]...)
		b = binary.LittleEndian.AppendUint32(b, sectionCRC(name, w.payloads[i]))
	}
	return b
}

// WriteFile writes the snapshot to path crash-consistently: the bytes
// land in a temp file in the same directory, are fsynced, then renamed
// over path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old file or the new
// one, never a hybrid.
func (w *Writer) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(w.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is best-effort: some filesystems refuse it,
		// and the rename is already atomic w.r.t. crashes that matter
		// for correctness (old-or-new, never hybrid).
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Reader is a fully validated snapshot: construction verifies magic,
// version, framing and every section CRC, so by the time a Reader
// exists the container is structurally sound.
type Reader struct {
	epoch    uint64
	sections map[string][]byte
	order    []string
}

// Parse validates b as a snapshot container.
func Parse(b []byte) (*Reader, error) {
	if len(b) < HeaderLen {
		if len(b) >= len(magic) && string(b[:len(magic)]) == magic {
			return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
		}
		return nil, fmt.Errorf("%w: %d-byte file", ErrBadMagic, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, b[:len(magic)])
	}
	off := len(magic)
	ver := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if ver != Version {
		return nil, fmt.Errorf("%w: file v%d, reader v%d", ErrVersion, ver, Version)
	}
	epoch := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if got := binary.LittleEndian.Uint32(b[off:]); got != epochCRC(epoch) {
		return nil, fmt.Errorf("%w: epoch word CRC32C %08x, want %08x", ErrCorrupt, epochCRC(epoch), got)
	}
	off += 4
	count := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if count > maxSections {
		return nil, fmt.Errorf("%w: %d sections claimed", ErrCorrupt, count)
	}
	r := &Reader{epoch: epoch, sections: make(map[string][]byte, count)}
	for i := uint32(0); i < count; i++ {
		name, payload, n, err := parseSection(b[off:], i)
		if err != nil {
			return nil, err
		}
		off += n
		if _, dup := r.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		r.sections[name] = payload
		r.order = append(r.order, name)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(b)-off)
	}
	return r, nil
}

func parseSection(b []byte, idx uint32) (name string, payload []byte, n int, err error) {
	if len(b) < 4 {
		return "", nil, 0, fmt.Errorf("%w: section %d header", ErrTruncated, idx)
	}
	nameLen := binary.LittleEndian.Uint32(b)
	if nameLen > maxSectionBytes || int(nameLen) > len(b)-4 {
		return "", nil, 0, fmt.Errorf("%w: section %d name length %d", ErrTruncated, idx, nameLen)
	}
	off := 4 + int(nameLen)
	name = string(b[4:off])
	if len(b[off:]) < 4 {
		return "", nil, 0, fmt.Errorf("%w: section %q payload length", ErrTruncated, name)
	}
	payLen := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if payLen > maxSectionBytes || int(payLen) > len(b[off:]) {
		return "", nil, 0, fmt.Errorf("%w: section %q payload (%d bytes claimed)", ErrTruncated, name, payLen)
	}
	payload = b[off : off+int(payLen)]
	off += int(payLen)
	if len(b[off:]) < 4 {
		return "", nil, 0, fmt.Errorf("%w: section %q checksum", ErrTruncated, name)
	}
	crc := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if got := sectionCRC(name, payload); got != crc {
		return "", nil, 0, fmt.Errorf("%w: section %q CRC32C %08x, want %08x", ErrCorrupt, name, got, crc)
	}
	return name, payload, off, nil
}

// ReadFile reads and validates the snapshot at path.
func ReadFile(path string) (*Reader, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// Section returns the payload of the named section, or ErrCorrupt if
// the snapshot does not contain it (a writer/reader schema drift is a
// restore failure, not a silent default).
func (r *Reader) Section(name string) ([]byte, error) {
	p, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return p, nil
}

// Has reports whether the named section exists.
func (r *Reader) Has(name string) bool {
	_, ok := r.sections[name]
	return ok
}

// Names lists the sections in file order.
func (r *Reader) Names() []string { return r.order }

// Epoch returns the lease epoch stamped into the header (0 for
// snapshots written outside cluster operation).
func (r *Reader) Epoch() uint64 { return r.epoch }

package dsa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/snapshot"
)

// ErrInjected is the error an armed FaultExecutorError surfaces from
// the executor — a stand-in for any hard execution fault (ECC trap,
// NEON queue wedge) the real hardware could hit mid-takeover.
var ErrInjected = errors.New("dsa: injected executor fault")

// FaultKind selects the class of hardware fault the harness injects
// into the DSA. Each class targets a different structure the guarded
// takeover must survive: the DSA cache, the CIDP predictor, and the
// execution engine itself.
type FaultKind int

// Fault classes.
const (
	// FaultNone disables injection (production).
	FaultNone FaultKind = iota
	// FaultCorruptCache models a corrupted DSA-cache entry: the cached
	// pattern table's base addresses are shifted by cacheSkewBytes, so
	// the takeover loads and stores the wrong memory. Detected either
	// by an out-of-range access (rollback) or by the differential
	// oracle (silent corruption).
	FaultCorruptCache
	// FaultSkewCIDP models a wrong CIDP stride prediction: every
	// strided pattern's stride grows by one element, fanning accesses
	// away from their true streams as iterations advance.
	FaultSkewCIDP
	// FaultTruncateRange models a speculative range that silently
	// collapses: the executor performs none of the window's work but
	// still claims full coverage. Purely silent — only the oracle
	// can see it.
	FaultTruncateRange
	// FaultExecutorError models a hard executor fault: the first
	// window of the takeover fails with ErrInjected.
	FaultExecutorError
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCorruptCache:
		return "corrupt-cache"
	case FaultSkewCIDP:
		return "cidp-skew"
	case FaultTruncateRange:
		return "truncated-range"
	case FaultExecutorError:
		return "executor-error"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ParseFaultKind maps a -fault flag value to its kind.
func ParseFaultKind(s string) (FaultKind, error) {
	for _, k := range []FaultKind{FaultNone, FaultCorruptCache, FaultSkewCIDP, FaultTruncateRange, FaultExecutorError} {
		if s == k.String() {
			return k, nil
		}
	}
	return FaultNone, fmt.Errorf("unknown fault kind %q (want none, corrupt-cache, cidp-skew, truncated-range or executor-error)", s)
}

// cacheSkewBytes is the address shift FaultCorruptCache applies to
// the cached pattern table: one cache line.
const cacheSkewBytes = 64

// FaultConfig configures the harness.
type FaultConfig struct {
	Kind FaultKind
	// EveryN arms the fault on every Nth takeover (≤1 = every one).
	EveryN uint64
}

// FaultInjector arms one fault per selected takeover and lets the
// executor consume the armed state. All methods are nil-receiver safe
// so production paths carry no injection branches beyond a nil check.
type FaultInjector struct {
	cfg FaultConfig

	// Seen counts takeovers observed, Fired the ones faulted.
	Seen  uint64
	Fired uint64

	label    string // "fault:<kind>" while the current takeover is faulted
	truncate bool
	errOnce  bool
}

func newFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg}
}

// Arm prepares the fault for one takeover and returns its attribution
// label ("" when this takeover is not selected). Cache and CIDP
// faults mutate the request's analysis in place — exactly what a
// corrupted cache entry or predictor would hand the executor.
func (f *FaultInjector) Arm(req *Request) string {
	if f == nil {
		return ""
	}
	f.label, f.truncate, f.errOnce = "", false, false
	f.Seen++
	n := f.cfg.EveryN
	if n < 1 {
		n = 1
	}
	if f.cfg.Kind == FaultNone || f.Seen%n != 0 {
		return ""
	}
	f.Fired++
	f.label = "fault:" + f.cfg.Kind.String()
	switch f.cfg.Kind {
	case FaultCorruptCache:
		forEachPatternTable(req.Analysis, func(pats []MemPattern) {
			for i := range pats {
				pats[i].AddrA += cacheSkewBytes
				pats[i].AddrB += cacheSkewBytes
			}
		})
	case FaultSkewCIDP:
		skewStrides(req.Analysis, 1)
		req.Cached.skews++
		// A skewed predictor no longer supports the dependency-window
		// legality argument; take the plain path so the skew expresses
		// itself as wrong addresses, not a window-math crash.
		req.Analysis.Partial = false
	case FaultTruncateRange:
		f.truncate = true
	case FaultExecutorError:
		f.errOnce = true
	}
	return f.label
}

// skewStrides applies n cidp-skew faults to a's pattern tables: each
// fault grows every nonzero stride by one element, and a stride that
// reaches zero stays there. A table aliased by several visits (a guard
// or arm sharing its path's table) grows once per visit, as it does
// when the faults fire one at a time.
func skewStrides(a *Analysis, n uint64) {
	forEachPatternTable(a, func(pats []MemPattern) {
		for i := range pats {
			p := &pats[i]
			if p.Stride == 0 {
				continue
			}
			p.Stride = skewedStride(p.Stride, int64(p.Size), int64(n))
			p.AddrB = uint32(int64(p.AddrA) + p.Stride*int64(p.RefIterB-p.RefIterA))
		}
	})
}

// skewedStride is a nonzero stride after n steps of "grow by size
// unless zero".
func skewedStride(stride, size, n int64) int64 {
	if stride < 0 && size > 0 && -stride%size == 0 && -stride/size <= n {
		return 0
	}
	return stride + n*size
}

// forEachPatternTable visits every pattern table a takeover can
// execute from: the payload's own, each conditional path's, and the
// fully speculative conditional's guard and arm tables.
func forEachPatternTable(a *Analysis, fn func([]MemPattern)) {
	fn(a.Patterns)
	if a.Cond == nil {
		return
	}
	for i := range a.Cond.Paths {
		fn(a.Cond.Paths[i].patterns)
	}
	if cv := a.Cond.Vec; cv != nil {
		fn(cv.GuardPatterns)
		if cv.Taken != nil {
			fn(cv.Taken.Patterns)
		}
		if cv.Fall != nil {
			fn(cv.Fall.Patterns)
		}
	}
}

// SnapshotFault is a fault class applied to a snapshot *file* rather
// than to a live takeover: the ways a checkpoint on disk goes bad
// between the write and the resume. Each class must be detected at
// restore time — by the container's checksums or version gate — and
// degrade to an attributed restart-from-zero, never to resuming
// silently corrupted state.
type SnapshotFault int

// Snapshot-file fault classes.
const (
	// SnapTruncate cuts the file short — a torn write or a filesystem
	// that lost the tail on power failure.
	SnapTruncate SnapshotFault = iota
	// SnapBitFlip flips one bit inside a section — media corruption.
	SnapBitFlip
	// SnapVersionSkew rewrites the header version word — a checkpoint
	// left behind by a different simulator build.
	SnapVersionSkew
)

func (k SnapshotFault) String() string {
	switch k {
	case SnapTruncate:
		return "snap-truncate"
	case SnapBitFlip:
		return "snap-bitflip"
	case SnapVersionSkew:
		return "snap-version-skew"
	default:
		return fmt.Sprintf("SnapshotFault(%d)", int(k))
	}
}

// SnapshotFaults lists every snapshot-file fault class, for harnesses
// that sweep them all.
var SnapshotFaults = []SnapshotFault{SnapTruncate, SnapBitFlip, SnapVersionSkew}

// InjectSnapshotFault corrupts the snapshot file at path in place
// according to kind. The file must be a valid snapshot container
// (magic + version header) large enough to damage meaningfully.
func InjectSnapshotFault(path string, kind SnapshotFault) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Header layout (see internal/snapshot): magic [0,4) + version
	// [4,8) + epoch word and its CRC [8,20) + section count [20,24).
	const headerLen = snapshot.HeaderLen
	if len(raw) < headerLen+8 {
		return fmt.Errorf("snapshot %s too small (%d bytes) to fault", path, len(raw))
	}
	switch kind {
	case SnapTruncate:
		raw = raw[:len(raw)*2/3]
	case SnapBitFlip:
		// Flip a bit in the middle of the body: well past the header, so
		// detection must come from a section CRC, not the magic check.
		raw[headerLen+(len(raw)-headerLen)/2] ^= 0x10
	case SnapVersionSkew:
		binary.LittleEndian.PutUint32(raw[4:8], binary.LittleEndian.Uint32(raw[4:8])+1)
	default:
		return fmt.Errorf("unknown snapshot fault %v", kind)
	}
	return os.WriteFile(path, raw, 0o644)
}

// truncated reports whether the current takeover's windows should be
// silently dropped.
func (f *FaultInjector) truncated() bool { return f != nil && f.truncate }

// takeError fires the armed executor error exactly once.
func (f *FaultInjector) takeError() error {
	if f == nil || !f.errOnce {
		return nil
	}
	f.errOnce = false
	return ErrInjected
}

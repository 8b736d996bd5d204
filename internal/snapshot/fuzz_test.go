package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotParse feeds arbitrary bytes to both decoders of outside
// bytes in this package: the container (Parse) and the record stream
// (SplitRecords). Neither may panic; a rejection must be one of the
// typed errors; an accepted input must re-encode to the same bytes,
// since both formats have exactly one encoding per content.
func FuzzSnapshotParse(f *testing.F) {
	var w Writer
	w.Epoch = 7
	w.Add("meta", []byte{1, 2, 3})
	w.Add("dsa.cache", nil)
	f.Add(w.Bytes())
	f.Add(AppendRecord(AppendRecord(nil, []byte("job")), nil))
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := Parse(b); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("Parse: untyped error %v", err)
			}
		} else {
			again := Writer{Epoch: r.Epoch()}
			for _, name := range r.Names() {
				p, err := r.Section(name)
				if err != nil {
					t.Fatalf("section %q listed but missing: %v", name, err)
				}
				again.Add(name, p)
			}
			if !bytes.Equal(again.Bytes(), b) {
				t.Fatal("Parse accepted bytes that do not re-encode to themselves")
			}
		}

		recs, err := SplitRecords(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("SplitRecords: untyped error %v", err)
			}
			return
		}
		var again []byte
		for _, p := range recs {
			again = AppendRecord(again, p)
		}
		if !bytes.Equal(again, b) {
			t.Fatal("SplitRecords accepted bytes that do not re-encode to themselves")
		}
	})
}

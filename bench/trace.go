package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one job share its Job number and Key.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Key    string `json:"key,omitempty"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	jobs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newJob numbers the next job's spans.
func (t *tracer) newJob() int {
	if t == nil {
		return -1
	}
	return int(t.jobs.Add(1))
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, job int, key string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Key: key, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as the
// service's own job timestamps, and returns its index.
func (t *tracer) add(name string, parent, job int, key string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Key: key, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// has reports whether any span named name was recorded.
func (t *tracer) has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Name == name {
			return true
		}
	}
	return false
}

// durations returns every duration of spans named name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, ms(t.spans[i].dur()))
		}
	}
	return out
}

// minByKey returns, per job key, the shortest span named name.
func (t *tracer) minByKey(name string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		if d, ok := out[s.Key]; !ok || s.dur() < d {
			out[s.Key] = s.dur()
		}
	}
	return out
}

// layerRow is one span name's line in the per-layer table.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
	p50         float64
}

// selfTimes returns, per span index, its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64 = 0, s.Start
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerTable aggregates the spans by name, largest self time first.
func (t *tracer) layerTable() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += self[i]
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	var out []layerRow
	for name, r := range rows {
		r.p50 = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func formatLayerTable(rows []layerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8d %12.3f %12.3f %10.4f\n", r.name, r.count, ms(r.total), ms(r.self), r.p50)
	}
	return b.String()
}

// writeTrace writes spans.json and layers.txt into dir.
func (t *tracer) writeTrace(dir string, table string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table), 0o644)
}

// --- CPU profile ---------------------------------------------------

// profileSample is one CPU profile sample reduced to its leaf frame.
type profileSample struct {
	fn, file string // leaf function name and source file
	count    int64
}

// readProfile decodes a gzipped pprof profile (profile.proto) far
// enough to give each sample's leaf frame: for inlined calls the first
// line of a location is the innermost function.
func readProfile(path string) ([]profileSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{}   // location → leaf function id
		fnStrs  = map[uint64][2]int64{} // function → (name, filename) string indexes
	)
	err = protoFields(b, func(f int, v uint64, msg []byte) error {
		switch f {
		case 2: // sample
			var s sample
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, m)
				case 2:
					for _, x := range appendVarints(nil, v, m) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined call
					if first {
						first = false
						return protoFields(m, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			fnStrs[id] = [2]int64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	var out []profileSample
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		f := fnStrs[locFn[s.locs[0]]]
		out = append(out, profileSample{fn: str(f[0]), file: str(f[1]), count: s.values[0]})
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field, packed (msg set) or
// not (v set).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// bucketShares turns samples into each bucket's percentage of the
// sampled host time.
func bucketShares(samples []profileSample) map[string]float64 {
	var total int64
	counts := map[string]int64{}
	for _, s := range samples {
		counts[bucketOf(s.fn, s.file)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for b, c := range counts {
		out[b] = 100 * float64(c) / float64(total)
	}
	return out
}

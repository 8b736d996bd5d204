package server

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the submission
// path's strict decode (1 MiB cap, no unknown fields) and Validate.
// Nothing may panic, a validated name carries no CR/LF, and every spec
// that validates must convert into a runner job — admission promises a
// 400 up front, never a job that fails for its spec.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"mm_32x32","config":"extended"}`,
		`{"name":"two\r\nlines","source":"\tmov r0, #0\n\thalt\n","verify":true,"timeout_ms":5}`,
		`{"source":"loop: subs r0, r0, #1\n bne loop\n halt","config":"adaptive"}`,
		`{"workload":"mm_32x32","source":"halt"}`,
		`{"workload":"mm_32x32","config":"avx"}`,
		`{"workload":"echo","timeout_ms":-1}`,
		`{"workload":"mm_32x32","unknown":1}`,
		`{"source":"bogus r0, r1"}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil || spec.Validate() != nil {
			return
		}
		if strings.ContainsAny(spec.Name, "\r\n") {
			t.Fatalf("validated name %q keeps CR/LF", spec.Name)
		}
		if _, err := spec.RunnerJob("j000001"); err != nil {
			t.Fatalf("spec validates but does not convert: %v (body %q)", err, body)
		}
	})
}

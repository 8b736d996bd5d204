package main

import "time"

// simWorkload runs jobs in-process on one goroutine, the way a library
// user of the simulator does. A job is assemble + construct + set up +
// run + check; the memory digest is checked on the untimed warm-up
// pass, outside the timed region.
type simWorkload struct {
	jobs []*jobKey
	seed int64
}

// setupSim builds the jobs: the named suite kernels, plus the seed's
// generated programs when withGen is set, each in every mode.
func setupSim(cfg config, kernels []string, withGen bool) (*simWorkload, error) {
	goldens, err := loadGoldens(cfg.goldenPath())
	if err != nil {
		return nil, err
	}
	progs, err := builtinPrograms(kernels, goldens)
	if err != nil {
		return nil, err
	}
	if withGen {
		gen, err := generatedPrograms(cfg.seed)
		if err != nil {
			return nil, err
		}
		progs = append(progs, gen...)
	}
	return &simWorkload{jobs: keysOf(progs, modes), seed: cfg.seed}, nil
}

func (w *simWorkload) keys() []*jobKey { return w.jobs }

// warmup checks every built-in job against its golden row; the
// generated programs ran, and were checked, when setup derived their
// references.
func (w *simWorkload) warmup(c *collector) {
	var builtins []*jobKey
	for _, k := range w.jobs {
		if k.prog.src == "" {
			builtins = append(builtins, k)
		}
	}
	inProcessPass(builtins, nil, c)
}

func (w *simWorkload) load(d time.Duration, minJobs int, tr *tracer, c *collector) time.Duration {
	dk := newDeck(w.jobs, w.seed)
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start) < d; i++ {
		k := dk.next()
		t0 := time.Now()
		o, err := runInProcess(tr, tr.newJob(), k, false)
		wall := time.Since(t0)
		if err == nil {
			err = checkOutcome(k, o.ref, false)
		}
		if err != nil {
			c.fail(err, true)
			continue
		}
		c.ok(k, wall)
	}
	return time.Since(start)
}

func (w *simWorkload) close() {}

package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/server"
	"repro/internal/workloads"
)

// program is one simulated program: a built-in suite workload or a
// seed-generated one.
type program struct {
	name string
	w    *workloads.Workload
	src  string // generated source; "" for built-ins
	// ref is the expected outcome per config name: the golden rows for
	// built-ins, the in-process runs for generated programs.
	ref map[string]reference
}

// eqSteps is the scalar-mode retirement count: the common measure of
// work across modes, since DSA modes retire fewer scalar instructions
// for the same program.
func (p *program) eqSteps() uint64 { return p.ref["scalar"].steps }

// jobKey is one (program, mode) pair.
type jobKey struct {
	prog *program
	mode string
}

func (k *jobKey) String() string { return k.prog.name + "/" + k.mode }

// spec is the service submission for the key.
func (k *jobKey) spec() server.JobSpec {
	if k.prog.src != "" {
		return server.JobSpec{Name: k.prog.name, Source: k.prog.src, Config: k.mode}
	}
	return server.JobSpec{Workload: k.prog.name, Config: k.mode}
}

// builtinPrograms looks up suite workloads and their golden rows.
func builtinPrograms(names []string, goldens map[string]map[string]reference) ([]*program, error) {
	var out []*program
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ref := goldens[name]
		for _, m := range modes {
			if _, ok := ref[m]; !ok {
				return nil, fmt.Errorf("golden file has no %s row for %s", goldenModes[m], name)
			}
		}
		out = append(out, &program{name: name, w: w, ref: ref})
	}
	return out, nil
}

// generatedPrograms assembles the seed's programs and runs each in
// every mode to fix its reference. Every DSA mode must leave the memory
// image of the scalar run.
func generatedPrograms(seed int64) ([]*program, error) {
	var out []*program
	for _, g := range generate(seed) {
		if _, err := asm.Parse(g.name, g.src); err != nil {
			return nil, fmt.Errorf("generated %s: %w", g.name, err)
		}
		p := &program{name: g.name, src: g.src, ref: map[string]reference{}, w: &workloads.Workload{
			Name:   g.name,
			Scalar: func() *armlite.Program { return asm.MustParse(g.name, g.src) },
			Setup:  func(*cpu.Machine) {},
			Check:  func(*cpu.Machine) error { return nil },
		}}
		for _, m := range modes {
			o, err := runInProcess(nil, -1, &jobKey{p, m}, true)
			if err != nil {
				return nil, err
			}
			p.ref[m] = o.ref
		}
		for _, m := range modes[1:] {
			if p.ref[m].digest != p.ref["scalar"].digest {
				return nil, fmt.Errorf("%s/%s: memory digest %016x differs from the scalar run's %016x",
					g.name, m, p.ref[m].digest, p.ref["scalar"].digest)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// keysOf crosses programs with modes.
func keysOf(progs []*program, ms []string) []*jobKey {
	var out []*jobKey
	for _, p := range progs {
		for _, m := range ms {
			out = append(out, &jobKey{p, m})
		}
	}
	return out
}

// deck yields keys in seeded rounds: each round is a fresh permutation
// of all keys, so any prefix of whole rounds covers every key equally.
type deck struct {
	keys  []*jobKey
	rng   *rand.Rand
	round []int
}

func newDeck(keys []*jobKey, seed int64) *deck {
	return &deck{keys: keys, rng: rand.New(rand.NewSource(seed))}
}

func (d *deck) next() *jobKey {
	if len(d.round) == 0 {
		d.round = d.rng.Perm(len(d.keys))
	}
	k := d.keys[d.round[0]]
	d.round = d.round[1:]
	return k
}

// outcome is what an in-process job leaves behind.
type outcome struct {
	ref reference
	m   *cpu.Machine
	sys *dsa.System // nil in scalar mode
}

// runInProcess runs one job the way a library user does: assemble,
// construct, set up, run, check; then, when digest is set, hash the
// memory image. tr records a span around each call.
func runInProcess(tr *tracer, job int, k *jobKey, digest bool) (outcome, error) {
	key := k.String()
	root := tr.begin("job", -1, job, key)
	defer tr.end(root)

	sp := tr.begin("asm.assemble", root, job, key)
	prog := k.prog.w.Scalar()
	tr.end(sp)

	var out outcome
	sp = tr.begin("cpu.new", root, job, key)
	if k.mode == "scalar" {
		m, err := cpu.New(prog, cpu.DefaultConfig())
		if err != nil {
			return out, fmt.Errorf("%s: %w", key, err)
		}
		out.m = m
	} else {
		cfg, _, err := server.ConfigByName(k.mode)
		if err != nil {
			return out, err
		}
		sys, err := dsa.NewSystem(prog, cpu.DefaultConfig(), cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", key, err)
		}
		out.sys, out.m = sys, sys.M
	}
	tr.end(sp)

	sp = tr.begin("workloads.setup", root, job, key)
	k.prog.w.Setup(out.m)
	tr.end(sp)

	var err error
	if out.sys == nil {
		sp = tr.begin("cpu.run", root, job, key)
		err = out.m.Run(nil)
	} else {
		sp = tr.begin("dsa.run", root, job, key)
		err = out.sys.Run()
	}
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: %w", key, err)
	}

	sp = tr.begin("workloads.check", root, job, key)
	err = k.prog.w.Check(out.m)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: %w", key, err)
	}

	out.ref = reference{ticks: out.m.Ticks, steps: out.m.Steps}
	if digest {
		sp = tr.begin("mem.digest", root, job, key)
		out.ref.digest = out.m.Mem.Sum64()
		tr.end(sp)
	}
	return out, nil
}

// energyNJ is the modelled energy of a finished in-process job.
func (o *outcome) energyNJ() float64 {
	var ev energy.DSAEvents
	if o.sys != nil {
		ev = o.sys.Stats().EnergyEvents()
	}
	return energy.Compute(energy.DefaultParams(), o.m.Counts,
		o.m.Caches.L1Stats(), o.m.Caches.L2Stats(), ev).Total()
}

// dsaCounts sums the public DSA counters over a pass of jobs.
type dsaCounts struct {
	observations, loops, cidp, cacheAccesses, cacheHits, rejections uint64
	takeovers, vecIters, fallbacks, kept, suspended, trialed        uint64
	analysisTicks                                                   int64
}

func (c *dsaCounts) add(st *dsa.Stats) {
	c.observations += st.Observations
	c.loops += st.LoopsDetected
	c.cidp += st.CIDPCompares
	c.cacheAccesses += st.DSACacheAccesses
	c.cacheHits += st.DSACacheHits
	for _, n := range st.RejectedReasons {
		c.rejections += n
	}
	c.takeovers += st.Takeovers
	c.vecIters += st.VectorizedIters
	c.fallbacks += st.Fallbacks
	c.kept += st.PolicyKept
	c.suspended += st.PolicySuspended
	c.trialed += st.PolicyTrialed
	c.analysisTicks += st.AnalysisTicks
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *dsaCounts) metrics(out map[string]float64) {
	out["dsa.observations"] = float64(c.observations)
	out["dsa.loops_detected"] = float64(c.loops)
	out["dsa.cidp_compares"] = float64(c.cidp)
	out["dsa.cache_hit_ratio"] = ratio(c.cacheHits, c.cacheAccesses)
	out["dsa.rejections"] = float64(c.rejections)
	out["dsa.takeovers"] = float64(c.takeovers)
	out["dsa.takeover_yield"] = ratio(c.takeovers, c.loops)
	out["dsa.vec_iters"] = float64(c.vecIters)
	out["dsa.fallbacks"] = float64(c.fallbacks)
	out["dsa.analysis_ticks"] = float64(c.analysisTicks)
	out["policy.kept"] = float64(c.kept)
	out["policy.suspended"] = float64(c.suspended)
	out["policy.trialed"] = float64(c.trialed)
}

// modelStats collects each built-in program's simulated ticks and
// energy per mode; both are exact and repeat on every run.
type modelStats map[string]map[string][2]float64 // program → mode → (ticks, nJ)

func (s modelStats) note(prog, mode string, ticks int64, nj float64) {
	if s[prog] == nil {
		s[prog] = map[string][2]float64{}
	}
	s[prog][mode] = [2]float64{float64(ticks), nj}
}

func (s modelStats) merge(o modelStats) {
	for prog, m := range o {
		for mode, v := range m {
			if s[prog] == nil {
				s[prog] = map[string][2]float64{}
			}
			s[prog][mode] = v
		}
	}
}

// metrics reports the geometric-mean simulated speed-up of the extended
// and adaptive DSA over scalar, and the mean energy saving of the
// extended DSA, over the programs noted. Programs are taken in name
// order so the sums repeat bit for bit.
func (s modelStats) metrics(out map[string]float64) error {
	progs := make([]string, 0, len(s))
	for prog := range s {
		progs = append(progs, prog)
	}
	sort.Strings(progs)
	var ext, ada, save []float64
	for _, prog := range progs {
		m := s[prog]
		sc, e, a := m["scalar"], m["extended"], m["adaptive"]
		if sc[0] == 0 || e[0] == 0 || a[0] == 0 {
			return fmt.Errorf("model metrics: %s lacks a scalar, extended or adaptive result", prog)
		}
		ext = append(ext, sc[0]/e[0])
		ada = append(ada, sc[0]/a[0])
		save = append(save, 100*(1-e[1]/sc[1]))
	}
	if len(ext) == 0 {
		return fmt.Errorf("model metrics: no built-in results")
	}
	out["model_speedup_extended"] = geomean(ext)
	out["model_speedup_adaptive"] = geomean(ada)
	var sum float64
	for _, v := range save {
		sum += v
	}
	out["model_energy_saving_extended_pct"] = sum / float64(len(save))
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ppcsim"
	"ppcsim/internal/disk"
	"ppcsim/internal/engine"
	"ppcsim/internal/layout"
	"ppcsim/internal/obs"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
	"ppcsim/internal/trace"
)

// The traced run times calls at the seams between the program's
// modules, from wrappers installed here:
//
//	coordinator handler → coord.Backend.Run → serve.Config.Runner →
//	engine.Run → {engine.Policy Poll/OnStall, disk.Model.Service,
//	trace.Source.ReadRefs}, plus an obs.Observer counting events.
//
// The future and cache modules have no seam of their own; their time
// is part of engine.self_s. Spans are recorded per operation, handler,
// backend call, runner call and engine run; the inner seams are called
// millions of times per run, so each engine.run span carries their
// summed time instead of one span per call.

// span is one recorded interval. Parent is 0 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	PollUs  float64 `json:"poll_us,omitempty"`
	DiskUs  float64 `json:"disk_us,omitempty"`
	ReadUs  float64 `json:"read_us,omitempty"`
}

// layerTotals sums the seam timings and counts of one traced pass.
type layerTotals struct {
	pollNs, polls, diskNs, services, readNs, reads int64
	readBytes                                      int64
	engineNs, engineRefs                           int64
	fetches, stalls, evictions, writes             int64
	runnerNs, runnerRuns                           int64
	backendNs, backendCalls, failedRuns            int64
	handlerNs, handlerCalls                        int64
}

// tracer records one traced pass. Operations run one at a time (the
// client loop is closed), so the open-span stack gives every span its
// parent even when the runner executes on a worker goroutine.
type tracer struct {
	epoch time.Time
	// blobBytes maps a streamed trace's name to its encoded size, for
	// the decode rate.
	blobBytes map[string]int64

	mu sync.Mutex
	//ppcvet:guardedby mu
	spans []span
	//ppcvet:guardedby mu
	open []int
	//ppcvet:guardedby mu
	tot layerTotals
	//ppcvet:guardedby mu
	std map[string]float64 // standalone-pass figures
}

func newTracer(blobBytes map[string]int64) *tracer {
	return &tracer{epoch: now(), blobBytes: blobBytes, std: make(map[string]float64)}
}

func (t *tracer) since() time.Duration { return now().Sub(t.epoch) }

// begin opens a span under the innermost open one. Safe on a nil
// tracer, which records nothing.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	start := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := span{ID: len(t.spans) + 1, Name: name, StartUs: float64(start) / 1e3}
	if n := len(t.open); n > 0 {
		sp.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, sp)
	t.open = append(t.open, sp.ID)
	return sp.ID
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	el := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.DurUs = float64(el)/1e3 - sp.StartUs
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
	return time.Duration(sp.DurUs * 1e3)
}

func (t *tracer) add(f func(*layerTotals)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.tot)
}

func (t *tracer) setStd(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.std[name] = v
}

// runAcc accumulates the inner seams of one engine run without locking.
type runAcc struct {
	pollNs, polls, diskNs, services, readNs, reads int64
}

type tracedPolicy struct {
	engine.Policy
	acc *runAcc
}

func (p *tracedPolicy) Poll() {
	t0 := now()
	p.Policy.Poll()
	p.acc.pollNs += int64(now().Sub(t0))
	p.acc.polls++
}

func (p *tracedPolicy) OnStall(b layout.BlockID) {
	t0 := now()
	p.Policy.OnStall(b)
	p.acc.pollNs += int64(now().Sub(t0))
}

// tracedModel times an HP 97560 model; it keeps the breakdown surface
// so the drive records service components exactly as it would.
type tracedModel struct {
	*disk.HP97560
	acc *runAcc
}

func (m *tracedModel) Service(lbn int64, at float64) float64 {
	t0 := now()
	v := m.HP97560.Service(lbn, at)
	m.acc.diskNs += int64(now().Sub(t0))
	m.acc.services++
	return v
}

type tracedSource struct {
	trace.Source
	acc *runAcc
}

func (s *tracedSource) ReadRefs(p []trace.Ref) (int, error) {
	t0 := now()
	n, err := s.Source.ReadRefs(p)
	s.acc.readNs += int64(now().Sub(t0))
	s.acc.reads++
	return n, err
}

// eventCounter counts the simulated events whose rates a host-speed
// change must leave exactly as they are.
type eventCounter struct {
	obs.Base
	fetches, writes, stalls, evictions int64
}

func (c *eventCounter) FetchIssued(e obs.FetchEvent) {
	if e.Write {
		c.writes++
	} else {
		c.fetches++
	}
}
func (c *eventCounter) StallBegin(obs.StallEvent) { c.stalls++ }
func (c *eventCounter) Eviction(obs.EvictEvent)   { c.evictions++ }

// runEngine is ppcsim.RunContext with every inner seam wrapped: it
// builds engine.Config from ppcsim.NewPolicy and the same Options.
func (t *tracer) runEngine(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error) {
	if opts.SimpleDiskModel || opts.DiskGeometry != nil || opts.Observer != nil {
		return ppcsim.Result{}, errors.New("traced runs support only the default disk model and no observer")
	}
	if err := opts.Validate(); err != nil {
		return ppcsim.Result{}, err
	}
	pol, err := ppcsim.NewPolicy(opts)
	if err != nil {
		return ppcsim.Result{}, err
	}
	disks := opts.Disks
	if disks == 0 {
		disks = 1
	}
	acc := &runAcc{}
	ctr := &eventCounter{}
	cfg := engine.Config{
		Trace:            opts.Trace,
		Policy:           &tracedPolicy{Policy: pol, acc: acc},
		Disks:            disks,
		CacheBlocks:      opts.CacheBlocks,
		Discipline:       opts.Scheduler,
		Model:            func() disk.Model { return &tracedModel{HP97560: disk.NewHP97560(), acc: acc} },
		DriverOverheadMs: opts.DriverOverheadMs,
		PlacementSeed:    opts.PlacementSeed,
		Hints:            opts.Hints,
		Observer:         ctr,
		Ctx:              ctx,
	}
	var refs, blob int64
	if opts.Source != nil {
		cfg.Source = &tracedSource{Source: opts.Source, acc: acc}
		refs = opts.Source.Meta().Refs
		blob = t.blobBytes[opts.Source.Meta().Name]
	} else {
		refs = int64(len(opts.Trace.Refs))
	}
	id := t.begin("engine.run")
	t0 := now()
	res, err := engine.Run(cfg)
	el := int64(now().Sub(t0))
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.PollUs, sp.DiskUs, sp.ReadUs = float64(acc.pollNs)/1e3, float64(acc.diskNs)/1e3, float64(acc.readNs)/1e3
	tt := &t.tot
	tt.engineNs += el
	tt.engineRefs += refs
	tt.pollNs += acc.pollNs
	tt.polls += acc.polls
	tt.diskNs += acc.diskNs
	tt.services += acc.services
	tt.readNs += acc.readNs
	tt.reads += acc.reads
	tt.readBytes += blob
	tt.fetches += ctr.fetches
	tt.writes += ctr.writes
	tt.stalls += ctr.stalls
	tt.evictions += ctr.evictions
	return res, err
}

// runner is the serve.Config.Runner of a traced worker.
func (t *tracer) runner(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error) {
	id := t.begin("serve.runner")
	res, err := t.runEngine(ctx, opts)
	el := t.end(id)
	t.add(func(tt *layerTotals) { tt.runnerNs += int64(el); tt.runnerRuns++ })
	return res, err
}

// tracedBackend times coord.Backend.Run and passes the trace-store
// surface through.
type tracedBackend struct {
	*coord.LocalBackend
	t *tracer
}

func (b *tracedBackend) Run(ctx context.Context, body []byte) ([]byte, serve.RunMeta, error) {
	id := b.t.begin("coord.backend.run")
	val, meta, err := b.LocalBackend.Run(ctx, body)
	el := b.t.end(id)
	b.t.add(func(tt *layerTotals) {
		tt.backendNs += int64(el)
		tt.backendCalls++
		if err != nil {
			tt.failedRuns++
		}
	})
	return val, meta, err
}

// handler times the coordinator's HTTP handler.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("coord.handler")
		h.ServeHTTP(w, r)
		el := t.end(id)
		t.add(func(tt *layerTotals) { tt.handlerNs += int64(el); tt.handlerCalls++ })
	})
}

// perLayer is the per-layer metric table: name, unit and better
// direction, in the order BENCHMARK.json lists them.
var perLayer = []struct{ name, unit, better string }{
	{"policy.poll_s", "s", "lower"},
	{"policy.polls_per_kref", "1/kref", "lower"},
	{"disk.service_s", "s", "lower"},
	{"disk.services_per_kref", "1/kref", "lower"},
	{"engine.self_s", "s", "lower"},
	{"trace.read_s", "s", "lower"},
	{"trace.reads_per_kref", "1/kref", "lower"},
	{"trace.decode_mb_per_s", "MB/s", "higher"},
	{"trace.decode_b_per_ref", "B/ref", "lower"},
	{"serve.sim_ms", "ms", "lower"},
	{"serve.boundary_ms", "ms", "lower"},
	{"coord.self_ms", "ms", "lower"},
	{"serve.decode_ms.text", "ms", "lower"},
	{"serve.decode_ms.columnar", "ms", "lower"},
	{"serve.decode_ms.warm", "ms", "lower"},
	{"serve.key_ms.text", "ms", "lower"},
	{"serve.key_ms.columnar", "ms", "lower"},
	{"serve.key_ms.warm", "ms", "lower"},
	{"trace.parse_ms.text", "ms", "lower"},
	{"trace.parse_ms.columnar", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.alloc_b_per_req.text", "B/req", "lower"},
	{"serve.alloc_b_per_req.columnar", "B/req", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"coord.failed_runs", "count", "lower"},
	{"engine.fetches_per_kref", "1/kref", "lower"},
	{"engine.stalls_per_kref", "1/kref", "lower"},
	{"cache.evictions_per_kref", "1/kref", "lower"},
	{"engine.writes_per_kref", "1/kref", "lower"},
}

// layerMetrics turns one traced pass into the per-layer figures.
// Metrics of a layer the workload does not reach read 0.
func (t *tracer) layerMetrics(p *pass) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.tot
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(n int64, d float64) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d
	}
	kref := float64(a.engineRefs) / 1000
	meanMs := func(ns, n int64) float64 { return ratio(ns, float64(n)) / 1e6 }
	m := map[string]float64{
		"policy.poll_s":            sec(a.pollNs),
		"policy.polls_per_kref":    ratio(a.polls, kref),
		"disk.service_s":           sec(a.diskNs),
		"disk.services_per_kref":   ratio(a.services, kref),
		"engine.self_s":            sec(a.engineNs - a.pollNs - a.diskNs - a.readNs),
		"trace.read_s":             sec(a.readNs),
		"trace.reads_per_kref":     ratio(a.reads, kref),
		"trace.decode_mb_per_s":    ratio(a.readBytes, sec(a.readNs)) / 1e6,
		"serve.sim_ms":             meanMs(a.runnerNs, a.runnerRuns),
		"serve.boundary_ms":        meanMs(a.backendNs-a.runnerNs, a.backendCalls),
		"coord.self_ms":            meanMs(a.handlerNs-a.backendNs, a.handlerCalls),
		"coord.failed_runs":        float64(a.failedRuns),
		"engine.fetches_per_kref":  ratio(a.fetches, kref),
		"engine.stalls_per_kref":   ratio(a.stalls, kref),
		"cache.evictions_per_kref": ratio(a.evictions, kref),
		"engine.writes_per_kref":   ratio(a.writes, kref),
	}
	allocs := map[string][]float64{}
	hits := 0
	for i := range p.ops {
		o := &p.ops[i]
		if o.hit {
			hits++
		}
		allocs[o.kind] = append(allocs[o.kind], float64(o.alloc))
	}
	m["serve.alloc_b_per_req.text"] = mean(allocs["text"])
	m["serve.alloc_b_per_req.columnar"] = mean(allocs["columnar"])
	m["serve.cache_hits"] = float64(hits)
	m["serve.cache_hit_ratio"] = float64(hits) / float64(len(p.ops))
	for k, v := range t.std {
		m[k] = v
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeSpans writes the recorded spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// standalone is implemented by workloads that time the serving
// boundary's steps one by one over the bodies of a traced pass.
type standalone interface {
	standalone(p *pass, t *tracer) error
}

// runTraced runs pairs of passes over the same fixed rounds, one plain
// and one traced, until the requested seconds are spent. Each traced
// output must be byte-identical to the plain one and pass the
// workload's checks; per-layer figures are the medians over the traced
// passes.
func runTraced(w workload, e *env) (result, error) {
	in, _, err := setupInst(w, e, 1)
	if err != nil {
		return result{}, err
	}
	defer in.close()
	var runs []map[string]float64
	var plainS, tracedS float64
	var lastT *tracer
	var digest string
	res := result{Correct: true}
	t0 := now()
	for len(runs) == 0 || msSince(t0)/1000 < e.seconds {
		plain, traced := &pass{}, &pass{}
		if err := runPass(in, w.tracedRounds, plain, nil); err != nil {
			return result{}, err
		}
		tr := newTracer(blobSizes(in))
		if err := runPass(in, w.tracedRounds, traced, tr); err != nil {
			return result{}, err
		}
		res.Attempted += len(plain.ops) + len(traced.ops)
		res.Failed += plain.failed() + traced.failed()
		if err := sameOutputs(plain, traced); err != nil {
			return res, err
		}
		if sa, ok := in.(standalone); ok {
			if err := sa.standalone(traced, tr); err != nil {
				return res, err
			}
		}
		if digest, err = in.check(traced); err != nil {
			return res, err
		}
		runs = append(runs, tr.layerMetrics(traced))
		plainS += plain.seconds()
		tracedS += traced.seconds()
		lastT = tr
	}
	path := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, e.seed))
	if err := lastT.writeSpans(path); err != nil {
		return res, err
	}
	fmt.Fprintf(e.log, "%s seed %d: %d traced passes, output digest %s, spans in %s\n", w.name, e.seed, len(runs), digest, path)
	fmt.Fprintf(e.log, "tracing overhead: traced %.3f s - untraced %.3f s = %.3f s (%+.1f%%)\n",
		tracedS, plainS, tracedS-plainS, 100*(tracedS-plainS)/plainS)
	res.Metrics = make(map[string]metric)
	for _, l := range perLayer {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r[l.name])
		}
		res.Metrics[l.name] = metric{Value: median(vs), Unit: l.unit}
	}
	return res, nil
}

// runPass starts the program afresh and runs rounds 0..n-1 on it.
func runPass(in inst, n int, p *pass, t *tracer) error {
	if err := in.fresh(t); err != nil {
		return err
	}
	runtime.GC()
	for r := 0; r < n; r++ {
		if err := in.round(r, p, t); err != nil {
			return err
		}
	}
	return nil
}

// sameOutputs requires a traced pass to reproduce the plain pass byte
// for byte.
func sameOutputs(plain, traced *pass) error {
	if len(plain.ops) != len(traced.ops) {
		return failf("traced pass ran %d operations, plain pass %d", len(traced.ops), len(plain.ops))
	}
	for i := range plain.ops {
		a, b := &plain.ops[i], &traced.ops[i]
		if a.ok != b.ok || a.status != b.status || string(a.body) != string(b.body) {
			return failf("operation %d (round %d, input %d): traced output differs from untraced", i, a.round, a.id)
		}
	}
	return nil
}

// blobSizes returns the encoded sizes of the workload's streamed
// traces, when it has any.
func blobSizes(in inst) map[string]int64 {
	if b, ok := in.(interface{ blobs() map[string]int64 }); ok {
		return b.blobs()
	}
	return nil
}

// decodeAllocPerRef streams a columnar blob through trace.Source and
// returns the heap bytes the decoder allocated per reference.
func decodeAllocPerRef(blob []byte) (float64, error) {
	var n int64
	var derr error
	buf := make([]trace.Ref, 8192)
	_, alloc := measure(func() {
		src, err := trace.NewColumnarSource(bytes.NewReader(blob))
		if err != nil {
			derr = err
			return
		}
		for {
			k, err := src.ReadRefs(buf)
			n += int64(k)
			if err == io.EOF {
				return
			}
			if err != nil {
				derr = err
				return
			}
		}
	})
	if derr != nil {
		return 0, derr
	}
	return float64(alloc) / float64(n), nil
}

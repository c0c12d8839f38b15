package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"ppcsim"
)

func TestCheckResultRejectsPerturbedResult(t *testing.T) {
	tr, err := ppcsim.NewTrace("xds")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Forestall, Disks: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := factsOf(tr)
	if err := checkResult(f, res); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	for name, perturb := range map[string]func(*ppcsim.Result){
		"trace":   func(r *ppcsim.Result) { r.Trace = "other" },
		"compute": func(r *ppcsim.Result) { r.ComputeSec += 1e-3 },
		"hits":    func(r *ppcsim.Result) { r.CacheHits++ },
		"misses":  func(r *ppcsim.Result) { r.CacheMisses-- },
		"fetches": func(r *ppcsim.Result) { r.Fetches = int64(f.distinctReads) - 1 },
		"elapsed": func(r *ppcsim.Result) { r.ElapsedSec += 1e-3 },
		"stall":   func(r *ppcsim.Result) { r.StallTimeSec *= 1.01 },
	} {
		r := res
		perturb(&r)
		if err := checkResult(f, r); err == nil {
			t.Errorf("%s: perturbed result passed the property checks", name)
		}
		body, _ := json.Marshal(r)
		if err := checkBody(f, body); err == nil {
			t.Errorf("%s: perturbed result body passed the property checks", name)
		}
	}
}

func TestFactsCountOnlyReads(t *testing.T) {
	tr := genStreamTrace("w", 7, 0.5)
	f := factsOf(tr)
	if f.reads <= 0 || f.reads >= int64(len(tr.Refs)) {
		t.Fatalf("reads %d of %d references with half of them writes", f.reads, len(tr.Refs))
	}
	res, err := ppcsim.Run(ppcsim.Options{Trace: tr, Algorithm: ppcsim.Demand, Hints: &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Window: 500}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(f, res); err != nil {
		t.Fatal(err)
	}
	if res.WriteRequests == 0 {
		t.Fatal("a trace with writes issued no write requests")
	}
}

func TestMixColdBodiesUnique(t *testing.T) {
	m := &mixInst{seed: 5, slots: mixLayout(5)}
	kinds := map[string]int{}
	for id, sl := range m.slots {
		kinds[sl.kind]++
		if sl.kind == "warm" && (sl.target >= id || m.slots[sl.target].kind == "warm") {
			t.Fatalf("warm slot %d repeats slot %d, not an earlier cold slot", id, sl.target)
		}
	}
	if kinds["text"] != mixCold || kinds["columnar"] != mixCold || kinds["warm"] != 2*mixWarm {
		t.Fatalf("layout %v", kinds)
	}
	seen := map[string]string{}
	for r := 0; r < 3; r++ {
		for id, sl := range m.slots {
			if sl.kind == "warm" {
				continue
			}
			body, _, err := m.request(r, sl.kind, id)
			if err != nil {
				t.Fatal(err)
			}
			label := m.label(r, id)
			if prev, dup := seen[string(body)]; dup {
				t.Fatalf("%s repeats the body of %s", label, prev)
			}
			seen[string(body)] = label
			again, _, _ := m.request(r, sl.kind, id)
			if !bytes.Equal(body, again) {
				t.Fatalf("%s: body is not a function of the seed", label)
			}
		}
	}
	if other := mixLayout(6); len(other) != len(m.slots) {
		t.Fatalf("layout size depends on the seed")
	}
}

func TestStreamBodiesUniqueAndSeedOrdered(t *testing.T) {
	in, err := setupStream(&env{seed: 3, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := in.(*streamInst)
	defer s.close()
	seen := map[string]bool{}
	for _, q := range s.reqs {
		if seen[string(q.body)] {
			t.Fatalf("duplicate body %s", q.body)
		}
		seen[string(q.body)] = true
	}
	// One round: every failure is the routing fault, every success
	// equals the materialized library run.
	p := &pass{}
	if err := s.round(0, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.check(p); err != nil {
		t.Fatal(err)
	}
	if p.failed() == 0 || p.failed() == len(p.ops) {
		t.Logf("%d of %d runs failed", p.failed(), len(p.ops))
	}
}

func TestKnownRoutingFaultIsExact(t *testing.T) {
	notFound := `{"error":{"code":"invalid_request","field":"TraceHash","message":"TraceHash: tracestore: trace not found: ab"}}`
	for _, c := range []struct {
		status int
		body   string
		ok     bool
	}{
		{http.StatusBadRequest, notFound, true},
		{http.StatusBadGateway, notFound, false},
		{http.StatusBadRequest, `{"error":{"code":"invalid_request","field":"Window","message":"trace not found"}}`, false},
		{http.StatusBadRequest, `{"error":{"code":"invalid_request","field":"TraceHash","message":"bad hash"}}`, false},
		{http.StatusBadRequest, `not json`, false},
	} {
		err := knownRoutingFault(&op{status: c.status, body: []byte(c.body)})
		if (err == nil) != c.ok {
			t.Errorf("status %d body %s: accepted=%v, want %v", c.status, c.body, err == nil, c.ok)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	printed := endToEnd(&pass{ops: []op{{ok: true, refs: 1, ms: 1}}}, 1, 1)
	if len(printed) != len(spec.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(printed), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("benchmark has %d per-layer metrics, BENCHMARK.json lists %d", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if l := perLayer[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, l)
		}
	}
}

func TestTracedServeMixMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mix workload")
	}
	var out, log bytes.Buffer
	code := run([]string{"-workload", "serve-mix", "-seed", "2", "-seconds", "0.1", "-trace", "1", "-workdir", t.TempDir()}, &out, &log)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}
	if !strings.Contains(log.String(), "tracing overhead") {
		t.Errorf("no overhead line in %q", log.String())
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result %+v", res)
	}
	if hits := res.Metrics["serve.cache_hits"].Value; hits != float64(2*mixWarm*4) {
		t.Errorf("serve.cache_hits %v, want %d", hits, 2*mixWarm*4)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, log bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "paper-grid", "-seconds", "0"},
		{"-workload", "paper-grid", "-seconds", "1", "-trace", "2"},
		{"-bogus"},
	} {
		if code := run(args, &out, &log); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for bad flags: %s", out.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.9: 3.7, 1: 4} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is a number")
	}
}

// smallGrid is a two-trace corner of paper-grid that runs in well under
// a second.
func smallGrid(t *testing.T) *gridInst {
	t.Helper()
	g := &gridInst{placement: 3}
	for _, name := range []string{"xds", "ld"} {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		g.traces = append(g.traces, tr)
	}
	for ti := range g.traces {
		for _, a := range []ppcsim.Algorithm{ppcsim.Demand, ppcsim.Forestall} {
			for _, d := range []int{1, 4} {
				g.cells = append(g.cells, gridCell{trace: ti, alg: a, disks: d})
			}
		}
	}
	g.order = []int{7, 0, 3, 5, 1, 6, 2, 4}
	return g
}

func TestGridTracedMatchesPlainAndChecksCatchChanges(t *testing.T) {
	g := smallGrid(t)
	plain, traced := &pass{}, &pass{}
	if err := runPass(g, 2, plain, nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(nil)
	if err := runPass(g, 2, traced, tr); err != nil {
		t.Fatal(err)
	}
	if err := sameOutputs(plain, traced); err != nil {
		t.Fatal(err)
	}
	if _, err := g.check(traced); err != nil {
		t.Fatal(err)
	}
	m := tr.layerMetrics(traced)
	for _, name := range []string{"policy.poll_s", "disk.service_s", "engine.self_s", "engine.fetches_per_kref", "policy.polls_per_kref"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v on a traced grid pass", name, m[name])
		}
	}
	if m["trace.read_s"] != 0 || m["serve.sim_ms"] != 0 {
		t.Errorf("paper-grid reached the trace source or the server: %v", m)
	}
	if err := tr.writeSpans(t.TempDir() + "/spans.json"); err != nil {
		t.Fatal(err)
	}

	changed := &pass{ops: append([]op(nil), traced.ops...)}
	last := &changed.ops[len(changed.ops)-1]
	last.body = []byte(strings.Replace(string(last.body), `"Fetches":`, `"Fetches":1`, 1))
	if _, err := g.check(changed); err == nil {
		t.Error("a result that changed between rounds passed the grid check")
	}
	if err := sameOutputs(plain, changed); err == nil {
		t.Error("a changed traced output passed the byte-identity check")
	}
	failed := &pass{ops: []op{{id: 0, kind: "cell", body: []byte("boom")}}}
	if _, err := g.check(failed); err == nil {
		t.Error("a failed cell passed the grid check")
	}
}

func TestTimedServeMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mix workload")
	}
	var out, log bytes.Buffer
	if code := run([]string{"-workload", "serve-mix", "-seed", "4", "-seconds", "0.1", "-workdir", t.TempDir()}, &out, &log); code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted-res.Failed < minOps {
		t.Fatalf("result %+v", res)
	}
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

func TestTracedStreamRW(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stream-rw workload")
	}
	var out, log bytes.Buffer
	if code := run([]string{"-workload", "stream-rw", "-seed", "2", "-seconds", "0.1", "-trace", "1", "-workdir", t.TempDir()}, &out, &log); code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.read_s", "trace.reads_per_kref", "trace.decode_mb_per_s", "trace.decode_b_per_ref", "serve.sim_ms", "engine.writes_per_kref"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v on stream-rw", name, res.Metrics[name].Value)
		}
	}
	if got, want := res.Metrics["coord.failed_runs"].Value, float64(res.Failed/2); got != want {
		t.Errorf("coord.failed_runs %v, want the %v failures of one traced pass", got, want)
	}
}

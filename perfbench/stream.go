package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"ppcsim"
	"ppcsim/internal/layout"
	"ppcsim/internal/serve"
	"ppcsim/internal/serve/tracestore"
	"ppcsim/internal/trace"
)

// stream-rw sends trace_hash /v1/run requests for two columnar traces
// uploaded once through the coordinator: zipf reads only, and zipf
// reads mixed with write-behind writes. Workers stream the stored blob
// through the sliding-window engine, so columnar decoding, window
// upkeep, heap compaction and the write path do the work; request
// bodies are tiny.
//
// The two traces do not depend on the seed. Today the coordinator
// routes a trace_hash run by its canonical key and not to the worker
// holding the blob, so the runs that land on the other worker fail
// with a 400 naming TraceHash. Which runs those are follows from the
// trace hashes alone; fixed traces keep the failing share identical in
// every run. The seed orders the requests.
const (
	streamRefs      = 100_000
	streamBlocks    = 16384
	streamCache     = 1280
	streamWriteFrac = 0.25
)

var (
	streamAlgs    = []string{"demand", "fixed-horizon", "aggressive"}
	streamDisks   = []int{1, 4}
	streamWindows = []int{500, 2000}
)

// streamTrace names one of the two traces. The harness keeps only its
// hash and encoded size while runs are timed, so the live heap the
// benchmark reports is the program's; the trace itself is rebuilt from
// its seed when it is needed again.
type streamTrace struct {
	name      string
	seed      int64
	writeFrac float64
	hash      string
	size      int64
}

// build generates the trace and its columnar encoding.
func (st streamTrace) build() (*ppcsim.Trace, []byte, error) {
	tr := genStreamTrace(st.name, st.seed, st.writeFrac)
	var buf bytes.Buffer
	if _, err := ppcsim.WriteColumnarTrace(&buf, tr.Source()); err != nil {
		return nil, nil, err
	}
	return tr, buf.Bytes(), nil
}

type streamReq struct {
	trace, disks, window int
	alg                  string
	body                 []byte
}

type streamInst struct {
	workdir string
	traces  []streamTrace
	reqs    []streamReq
	order   []int // seeded send order, the same in every round
	cl      *cluster
}

// genStreamTrace draws a zipf(1.2) reference string over streamBlocks
// blocks with exponential compute times; writeFrac of the references
// are writes.
func genStreamTrace(name string, seed int64, writeFrac float64) *ppcsim.Trace {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, streamBlocks-1)
	refs := make([]trace.Ref, streamRefs)
	for i := range refs {
		refs[i] = trace.Ref{
			Block:     layout.BlockID(zipf.Uint64()),
			ComputeMs: rng.ExpFloat64() * 0.1,
			Write:     rng.Float64() < writeFrac,
		}
	}
	return &ppcsim.Trace{
		Name:        name,
		Refs:        refs,
		Files:       []layout.File{{First: 0, Blocks: streamBlocks}},
		CacheBlocks: streamCache,
	}
}

func setupStream(e *env) (inst, error) {
	s := &streamInst{workdir: e.workdir}
	var blobs [][]byte
	for i, spec := range []struct {
		name      string
		writeFrac float64
	}{{"rw-reads", 0}, {"rw-writes", streamWriteFrac}} {
		st := streamTrace{name: spec.name, seed: int64(101 + i), writeFrac: spec.writeFrac}
		_, blob, err := st.build()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(blob)
		st.hash, st.size = hex.EncodeToString(sum[:]), int64(len(blob))
		s.traces = append(s.traces, st)
		blobs = append(blobs, blob)
	}
	for ti, st := range s.traces {
		for _, a := range streamAlgs {
			for _, d := range streamDisks {
				for _, w := range streamWindows {
					body := fmt.Sprintf(`{"trace_hash":%q,"algorithm":%q,"disks":%d,"window":%d}`, st.hash, a, d, w)
					s.reqs = append(s.reqs, streamReq{trace: ti, alg: a, disks: d, window: w, body: []byte(body)})
				}
			}
		}
	}
	s.order = rand.New(rand.NewSource(e.seed)).Perm(len(s.reqs))
	if err := s.start(blobs, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// fresh starts a new cluster with both traces uploaded, rebuilding the
// blobs from their seeds.
func (s *streamInst) fresh(t *tracer) error {
	var blobs [][]byte
	for _, st := range s.traces {
		_, blob, err := st.build()
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
	}
	return s.start(blobs, t)
}

// start replaces the cluster with a new one and uploads each blob once.
// Workers keep one result each: every key recurs only a round later,
// after other keys have displaced it, so every run is computed.
func (s *streamInst) start(blobs [][]byte, t *tracer) error {
	if s.cl != nil {
		s.cl.close()
		s.cl = nil
	}
	cl, err := newCluster(s.workdir, 1, t)
	if err != nil {
		return err
	}
	s.cl = cl
	for i, st := range s.traces {
		if err := cl.put(st.hash, blobs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *streamInst) round(r int, p *pass, t *tracer) error {
	for _, id := range s.order {
		o := op{id: id, round: r, kind: "hash", refs: streamRefs}
		s.cl.runOp(&o, s.reqs[id].body, t)
		p.ops = append(p.ops, o)
	}
	return nil
}

func (s *streamInst) label(id int) string {
	q := s.reqs[id]
	return fmt.Sprintf("%s/%s/%dd/w%d", s.traces[q.trace].name, q.alg, q.disks, q.window)
}

// check compares every streamed result with a materialized library run
// of the same options, and requires every failure to be the known
// routing fault, on the same requests in every round.
func (s *streamInst) check(p *pass) (string, error) {
	var trs []*ppcsim.Trace
	var facts []traceFacts
	for _, st := range s.traces {
		tr := genStreamTrace(st.name, st.seed, st.writeFrac)
		trs = append(trs, tr)
		facts = append(facts, factsOf(tr))
	}
	want := make(map[int][]byte)
	var failedIn []map[int]bool // per round, the failed request ids
	for i := range p.ops {
		o := &p.ops[i]
		for len(failedIn) <= o.round {
			failedIn = append(failedIn, make(map[int]bool))
		}
		if !o.ok {
			if err := knownRoutingFault(o); err != nil {
				return "", failf("%s: %v", s.label(o.id), err)
			}
			failedIn[o.round][o.id] = true
			continue
		}
		if o.hit {
			return "", failf("%s: answered from the result cache; stream-rw runs must all be computed", s.label(o.id))
		}
		exp, ok := want[o.id]
		if !ok {
			q := s.reqs[o.id]
			res, err := ppcsim.Run(ppcsim.Options{
				Trace:     trs[q.trace],
				Algorithm: ppcsim.Algorithm(q.alg),
				Disks:     q.disks,
				Hints:     &ppcsim.HintSpec{Fraction: 1, Accuracy: 1, Window: q.window},
			})
			if err != nil {
				return "", fmt.Errorf("%s: direct run: %w", s.label(o.id), err)
			}
			if exp, err = json.Marshal(res); err != nil {
				return "", err
			}
			want[o.id] = exp
			if err := checkResult(facts[q.trace], res); err != nil {
				return "", failf("%s: %v", s.label(o.id), err)
			}
		}
		if !bytes.Equal(exp, o.body) {
			return "", failf("%s: streamed result differs from the materialized library run", s.label(o.id))
		}
	}
	for r, ids := range failedIn {
		if !sameSet(ids, failedIn[0]) {
			return "", failf("round %d failed requests %v, round 0 failed %v", r, sortedIDs(ids), sortedIDs(failedIn[0]))
		}
	}
	for _, st := range s.traces {
		holders := 0
		for _, w := range s.cl.workers {
			if store, err := w.TraceStore(); err == nil && store.Has(st.hash) {
				holders++
			}
		}
		if holders != 1 {
			return "", failf("trace %s is on %d workers; one upload should place it on exactly one", st.name, holders)
		}
	}
	h := sha256.New()
	for id := range s.reqs {
		h.Write(want[id])
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// knownRoutingFault accepts exactly the failure of a trace_hash run the
// coordinator routed to a worker without the blob.
func knownRoutingFault(o *op) error {
	var env serve.ErrorEnvelope
	err := json.Unmarshal(o.body, &env)
	switch {
	case o.status != http.StatusBadRequest:
		return fmt.Errorf("status %d: %s", o.status, o.body)
	case err != nil:
		return fmt.Errorf("400 without an error envelope: %s", o.body)
	case env.Error.Field != "TraceHash" || !strings.Contains(env.Error.Message, tracestore.ErrNotFound.Error()):
		return fmt.Errorf("400 is not the TraceHash not-found fault: %s", o.body)
	}
	return nil
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedIDs(m map[int]bool) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// standalone measures what the columnar decoder allocates per
// reference on the workload's blobs.
func (s *streamInst) standalone(p *pass, t *tracer) error {
	var per []float64
	for _, st := range s.traces {
		_, blob, err := st.build()
		if err != nil {
			return err
		}
		v, err := decodeAllocPerRef(blob)
		if err != nil {
			return err
		}
		per = append(per, v)
	}
	t.setStd("trace.decode_b_per_ref", mean(per))
	return nil
}

func (s *streamInst) blobs() map[string]int64 {
	m := make(map[string]int64)
	for _, st := range s.traces {
		m[st.name] = st.size
	}
	return m
}

func (s *streamInst) close() {
	if s.cl != nil {
		s.cl.close()
	}
}

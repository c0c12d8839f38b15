package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"ppcsim"
	"ppcsim/internal/layout"
	"ppcsim/internal/serve"
	"ppcsim/internal/trace"
)

// serve-mix is one closed-loop client sending /v1/run requests to the
// coordinator: cold requests each carry a trace of their own, inline as
// ppctrace text or as base64 columnar bytes, and about a quarter of the
// requests repeat an earlier body of the same round and are answered
// from the result cache. Body decoding, trace parsing, key hashing and
// the cache outweigh the simulation here. The loop is closed because
// sweep clients and scripts wait for each reply, and one request in
// flight keeps the figures a property of the program rather than of
// the host's scheduler.
const (
	mixRefs       = 20_000
	mixFiles      = 8
	mixFileBlocks = 512
	mixCache      = 1024
	mixCold       = 8 // cold requests per format per round
	mixWarm       = 3 // repeats per format per round
)

// mixCombos are the cold runs' options; each format's cold slots cycle
// through them, so every round asks for the same work.
var mixCombos = []struct {
	alg   ppcsim.Algorithm
	disks int
}{{ppcsim.Demand, 1}, {ppcsim.Demand, 2}, {ppcsim.FixedHorizon, 1}, {ppcsim.FixedHorizon, 2}}

// mixSlot is one position of the round layout, the same in every round.
type mixSlot struct {
	kind   string // "text", "columnar" or "warm"
	combo  int    // index into mixCombos, for cold slots
	target int    // for warm slots, the earlier cold slot repeated
}

type mixInst struct {
	workdir string
	seed    int64
	slots   []mixSlot
	cl      *cluster
}

func setupMix(e *env) (inst, error) {
	m := &mixInst{workdir: e.workdir, seed: e.seed, slots: mixLayout(e.seed)}
	if err := m.fresh(nil); err != nil {
		return nil, err
	}
	// Warm-up: one request of each cold kind, outside the rounds' inputs.
	for _, kind := range []string{"text", "columnar"} {
		body, _, err := m.request(-1, kind, 0)
		if err != nil {
			return nil, err
		}
		if rec := m.cl.do("POST", "/v1/run", body); rec.Code != 200 {
			return nil, fmt.Errorf("warm-up %s request: %d %s", kind, rec.Code, rec.Body.Bytes())
		}
	}
	return m, nil
}

// mixLayout draws the round layout: the cold slots of both formats in
// seeded order, and for each format mixWarm warm slots, each placed
// somewhere after the cold slot of that format it repeats.
func mixLayout(seed int64) []mixSlot {
	rng := rand.New(rand.NewSource(seed))
	var slots []mixSlot
	for _, kind := range []string{"text", "columnar"} {
		for i := 0; i < mixCold; i++ {
			slots = append(slots, mixSlot{kind: kind, combo: i % len(mixCombos)})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for w := 0; w < 2*mixWarm; w++ {
		kind := []string{"text", "columnar"}[w%2]
		var cold []int
		for i, sl := range slots {
			if sl.kind == kind {
				cold = append(cold, i)
			}
		}
		tgt := cold[rng.Intn(len(cold))]
		at := tgt + 1 + rng.Intn(len(slots)-tgt)
		slots = append(slots[:at], append([]mixSlot{{kind: "warm", target: tgt}}, slots[at:]...)...)
		for i := range slots {
			if i != at && slots[i].kind == "warm" && slots[i].target >= at {
				slots[i].target++
			}
		}
	}
	return slots
}

func (m *mixInst) fresh(t *tracer) error {
	if m.cl != nil {
		m.cl.close()
		m.cl = nil
	}
	cl, err := newCluster(m.workdir, 0, t)
	if err != nil {
		return err
	}
	m.cl = cl
	return nil
}

// mixCase is the generated input of one cold slot.
type mixCase struct {
	tr    *ppcsim.Trace
	alg   ppcsim.Algorithm
	disks int
	blob  []byte // columnar encoding, for columnar slots
}

// genMix builds the input of cold slot id in round r from the seed
// alone: a trace of mixRefs references over mixFiles files, mixing
// sequential runs with zipf-popular single blocks, run with the slot's
// options. Compute times are whole nanoseconds so the text format
// carries them exactly.
func (m *mixInst) genMix(r, id int, kind string) (mixCase, error) {
	rng := rand.New(rand.NewSource(m.seed*1_000_003 + int64(r)*1009 + int64(id)))
	nBlocks := mixFiles * mixFileBlocks
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(nBlocks-1))
	refs := make([]trace.Ref, 0, mixRefs)
	for len(refs) < mixRefs {
		if rng.Intn(2) == 0 {
			start := rng.Intn(nBlocks)
			for n := 1 + rng.Intn(64); n > 0 && len(refs) < mixRefs; n-- {
				refs = append(refs, trace.Ref{Block: layout.BlockID(start % nBlocks)})
				start++
			}
		} else {
			refs = append(refs, trace.Ref{Block: layout.BlockID(zipf.Uint64())})
		}
	}
	for i := range refs {
		refs[i].ComputeMs = float64(int64(rng.ExpFloat64()*1e6)) / 1e6
	}
	files := make([]layout.File, mixFiles)
	for f := range files {
		files[f] = layout.File{First: layout.BlockID(f * mixFileBlocks), Blocks: mixFileBlocks}
	}
	c := mixCase{
		tr: &ppcsim.Trace{
			Name:        fmt.Sprintf("mix-%d-%d-%d", m.seed, r, id),
			Refs:        refs,
			Files:       files,
			PlaceByFile: true,
			CacheBlocks: mixCache,
		},
		alg:   mixCombos[m.slots[id].combo].alg,
		disks: mixCombos[m.slots[id].combo].disks,
	}
	if kind == "columnar" {
		var buf bytes.Buffer
		if _, err := ppcsim.WriteColumnarTrace(&buf, c.tr.Source()); err != nil {
			return c, err
		}
		c.blob = buf.Bytes()
	}
	return c, nil
}

// request returns the /v1/run body of cold slot id in round r.
func (m *mixInst) request(r int, kind string, id int) ([]byte, mixCase, error) {
	c, err := m.genMix(r, id, kind)
	if err != nil {
		return nil, c, err
	}
	var text string
	if kind == "columnar" {
		text = base64.StdEncoding.EncodeToString(c.blob)
	} else {
		var buf bytes.Buffer
		if err := c.tr.Write(&buf); err != nil {
			return nil, c, err
		}
		text = buf.String()
	}
	body, err := json.Marshal(struct {
		TraceText string `json:"trace_text"`
		Algorithm string `json:"algorithm"`
		Disks     int    `json:"disks"`
	}{text, string(c.alg), c.disks})
	return body, c, err
}

// round sends the round's requests in order. The harness holds one
// request body at a time: a warm slot rebuilds its target's body, which
// is a pure function of the seed, so the live heap the benchmark reports
// is the program's.
func (m *mixInst) round(r int, p *pass, t *tracer) error {
	for id, sl := range m.slots {
		body, err := m.body(r, id)
		if err != nil {
			return err
		}
		o := op{id: id, round: r, kind: sl.kind, refs: mixRefs}
		m.cl.runOp(&o, body, t)
		p.ops = append(p.ops, o)
	}
	return nil
}

// body returns the /v1/run body slot id sends in round r: its own for a
// cold slot, its target's for a warm one.
func (m *mixInst) body(r, id int) ([]byte, error) {
	if sl := m.slots[id]; sl.kind == "warm" {
		id = sl.target
	}
	body, _, err := m.request(r, m.slots[id].kind, id)
	return body, err
}

func (m *mixInst) label(r, id int) string {
	return fmt.Sprintf("round %d slot %d (%s)", r, id, m.slots[id].kind)
}

// check compares every cold response with a direct library run over
// the generated trace, and every warm response with the first response
// for its body.
func (m *mixInst) check(p *pass) (string, error) {
	first := make(map[[2]int][]byte)
	h := sha256.New()
	for i := range p.ops {
		o := &p.ops[i]
		sl := m.slots[o.id]
		if !o.ok {
			return "", failf("%s: status %d: %s", m.label(o.round, o.id), o.status, o.body)
		}
		if sl.kind == "warm" {
			if !o.hit {
				return "", failf("%s: a repeated body was not answered from the result cache", m.label(o.round, o.id))
			}
			if !bytes.Equal(o.body, first[[2]int{o.round, sl.target}]) {
				return "", failf("%s: warm response differs from the first response for its body", m.label(o.round, o.id))
			}
			continue
		}
		if o.hit {
			return "", failf("%s: a cold body was answered from the result cache", m.label(o.round, o.id))
		}
		first[[2]int{o.round, o.id}] = o.body
		c, err := m.genMix(o.round, o.id, "")
		if err != nil {
			return "", err
		}
		res, err := ppcsim.Run(ppcsim.Options{Trace: c.tr, Algorithm: c.alg, Disks: c.disks})
		if err != nil {
			return "", fmt.Errorf("%s: direct run: %w", m.label(o.round, o.id), err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(want, o.body) {
			return "", failf("%s: served result differs from the direct library run", m.label(o.round, o.id))
		}
		if err := checkResult(factsOf(c.tr), res); err != nil {
			return "", failf("%s: %v", m.label(o.round, o.id), err)
		}
		h.Write(o.body)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// standalone times the serving boundary's steps one by one over the
// bodies of the traced pass: strict JSON decode, key derivation, trace
// parsing (option assembly) and result encoding.
func (m *mixInst) standalone(p *pass, t *tracer) error {
	dec, key, parse := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var enc, decodeAlloc []float64
	for i := range p.ops {
		o := &p.ops[i]
		sl := m.slots[o.id]
		body, err := m.body(o.round, o.id)
		if err != nil {
			return err
		}
		if sl.kind == "columnar" {
			c, err := m.genMix(o.round, o.id, sl.kind)
			if err != nil {
				return err
			}
			v, err := decodeAllocPerRef(c.blob)
			if err != nil {
				return err
			}
			decodeAlloc = append(decodeAlloc, v)
		}
		var req *serve.Request
		ms, _ := measure(func() { req, err = serve.ParseRequest(body) })
		if err != nil {
			return err
		}
		dec[sl.kind] = append(dec[sl.kind], ms)
		ms, _ = measure(func() { req.Key() })
		key[sl.kind] = append(key[sl.kind], ms)
		if sl.kind != "warm" {
			var cleanup func()
			ms, _ = measure(func() {
				_, cleanup, err = req.BuildOptions(serve.SourceEnv{LoadTrace: ppcsim.NewTrace})
			})
			if err != nil {
				return err
			}
			cleanup()
			parse[sl.kind] = append(parse[sl.kind], ms)
		}
		var res ppcsim.Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			return err
		}
		ms, _ = measure(func() { _, err = json.Marshal(res) })
		if err != nil {
			return err
		}
		enc = append(enc, ms)
	}
	for _, kind := range []string{"text", "columnar", "warm"} {
		t.setStd("serve.decode_ms."+kind, mean(dec[kind]))
		t.setStd("serve.key_ms."+kind, mean(key[kind]))
	}
	t.setStd("trace.parse_ms.text", mean(parse["text"]))
	t.setStd("trace.parse_ms.columnar", mean(parse["columnar"]))
	t.setStd("serve.encode_ms", mean(enc))
	t.setStd("trace.decode_b_per_ref", mean(decodeAlloc))
	return nil
}

func (m *mixInst) close() {
	if m.cl != nil {
		m.cl.close()
	}
}

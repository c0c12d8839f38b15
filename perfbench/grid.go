package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"ppcsim"
)

// paper-grid is the paper's own experiment: the ten Table 3 traces,
// materialized, under the four online hinted algorithms at 1 to 16
// disks. Reverse aggressive is left out: its cells alone take about
// four times as long as the rest of the grid.
var (
	gridAlgs  = []ppcsim.Algorithm{ppcsim.Demand, ppcsim.FixedHorizon, ppcsim.Aggressive, ppcsim.Forestall}
	gridDisks = []int{1, 2, 4, 8, 16}
)

type gridCell struct {
	trace int
	alg   ppcsim.Algorithm
	disks int
}

type gridInst struct {
	traces []*ppcsim.Trace
	cells  []gridCell
	order  []int // seeded run order of cells
	// placement is the seed of the per-file random placement, the one
	// input of the paper's runs the benchmark seed varies.
	placement int64
}

func setupGrid(e *env) (inst, error) {
	g := &gridInst{placement: e.seed}
	for _, name := range ppcsim.TraceNames {
		tr, err := ppcsim.NewTrace(name)
		if err != nil {
			return nil, err
		}
		g.traces = append(g.traces, tr)
	}
	for ti := range g.traces {
		for _, a := range gridAlgs {
			for _, d := range gridDisks {
				g.cells = append(g.cells, gridCell{trace: ti, alg: a, disks: d})
			}
		}
	}
	g.order = rand.New(rand.NewSource(e.seed)).Perm(len(g.cells))
	return g, nil
}

func (g *gridInst) options(c gridCell) ppcsim.Options {
	return ppcsim.Options{Trace: g.traces[c.trace], Algorithm: c.alg, Disks: c.disks, PlacementSeed: g.placement}
}

func (g *gridInst) label(id int) string {
	c := g.cells[id]
	return fmt.Sprintf("%s/%s/%dd", g.traces[c.trace].Name, c.alg, c.disks)
}

func (g *gridInst) round(r int, p *pass, t *tracer) error {
	for _, id := range g.order {
		opts := g.options(g.cells[id])
		var res ppcsim.Result
		var err error
		ms, alloc := measure(func() {
			sp := t.begin("cell")
			if t == nil {
				res, err = ppcsim.Run(opts)
			} else {
				res, err = t.runEngine(nil, opts)
			}
			t.end(sp)
		})
		o := op{id: id, round: r, kind: "cell", ok: err == nil, refs: int64(len(opts.Trace.Refs)), ms: ms, alloc: alloc}
		if err != nil {
			o.body = []byte(err.Error())
		} else if o.body, err = json.Marshal(res); err != nil {
			return err
		}
		p.ops = append(p.ops, o)
	}
	return nil
}

func (g *gridInst) fresh(*tracer) error { return nil }

func (g *gridInst) check(p *pass) (string, error) {
	facts := make([]traceFacts, len(g.traces))
	for i, tr := range g.traces {
		facts[i] = factsOf(tr)
	}
	first := make(map[int][]byte)
	for i := range p.ops {
		o := &p.ops[i]
		if !o.ok {
			return "", failf("cell %s failed: %s", g.label(o.id), o.body)
		}
		if prev, seen := first[o.id]; seen {
			if !bytes.Equal(prev, o.body) {
				return "", failf("cell %s: round %d result differs from round 0", g.label(o.id), o.round)
			}
			continue
		}
		first[o.id] = o.body
		c := g.cells[o.id]
		var res ppcsim.Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			return "", err
		}
		if res.Disks != c.disks {
			return "", failf("cell %s: result reports %d disks", g.label(o.id), res.Disks)
		}
		if err := checkResult(facts[c.trace], res); err != nil {
			return "", failf("cell %s: %v", g.label(o.id), err)
		}
	}
	h := sha256.New()
	for id := range g.cells {
		h.Write(first[id])
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func (g *gridInst) close() {}

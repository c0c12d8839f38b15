package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"ppcsim/internal/serve"
	"ppcsim/internal/serve/coord"
)

// cluster is a coordinator fronting two embedded workers with one
// simulation slot each, driven in process through its HTTP handler:
// requests cross the real handler, JSON and routing code, but no
// socket, so the figures belong to the program and not to the network
// stack.
type cluster struct {
	dir     string
	workers []*serve.Server
	handler http.Handler
}

// newCluster starts a cluster whose workers keep cacheEntries results
// each. A non-nil tracer wraps the runner, the backends and the
// handler.
func newCluster(workdir string, cacheEntries int, t *tracer) (*cluster, error) {
	dir, err := os.MkdirTemp(workdir, "cluster-*")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	var backends []coord.Backend
	for i := 0; i < 2; i++ {
		cfg := serve.Config{
			Workers:       1,
			CacheEntries:  cacheEntries,
			TraceStoreDir: filepath.Join(dir, fmt.Sprintf("store-%d", i)),
		}
		if t != nil {
			cfg.Runner = t.runner
		}
		srv := serve.New(cfg)
		c.workers = append(c.workers, srv)
		lb := coord.NewLocalBackend(fmt.Sprintf("local-%d", i), srv)
		if t != nil {
			backends = append(backends, &tracedBackend{LocalBackend: lb, t: t})
		} else {
			backends = append(backends, lb)
		}
	}
	co, err := coord.New(coord.Config{Backends: backends})
	if err != nil {
		c.close()
		return nil, err
	}
	c.handler = co.Handler()
	if t != nil {
		c.handler = t.handler(c.handler)
	}
	return c, nil
}

// do sends one request through the coordinator's handler.
func (c *cluster) do(method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, req)
	return rec
}

// put uploads a columnar trace through the coordinator.
func (c *cluster) put(hash string, blob []byte) error {
	rec := c.do(http.MethodPut, "/v1/traces/"+hash, blob)
	if rec.Code != http.StatusCreated {
		return fmt.Errorf("PUT /v1/traces/%s: %d %s", hash, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// runOp sends one /v1/run body and fills o with the outcome.
func (c *cluster) runOp(o *op, body []byte, t *tracer) {
	var rec *httptest.ResponseRecorder
	o.ms, o.alloc = measure(func() {
		id := t.begin("request")
		rec = c.do(http.MethodPost, "/v1/run", body)
		t.end(id)
	})
	o.status = rec.Code
	o.ok = rec.Code == http.StatusOK
	o.body = rec.Body.Bytes()
	o.hit = rec.Header().Get("X-Cache") == "hit"
}

func (c *cluster) close() {
	for _, s := range c.workers {
		s.Close()
	}
	os.RemoveAll(c.dir)
}

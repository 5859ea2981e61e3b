package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/appgen"
	"repro/internal/atomig"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/serve"
)

// rwPair glues two pipe halves into the io.ReadWriter ServeConn wants.
type rwPair struct {
	io.Reader
	io.Writer
}

// wireClient speaks the daemon's line protocol over in-memory pipes.
// Each call waits for its response before the next is sent, so
// responses arrive in request order.
type wireClient struct {
	w    *io.PipeWriter
	sc   *bufio.Scanner
	next int
	stop func()
}

// dial connects a client to srv through a fresh ServeConn.
func dial(srv *serve.Server) *wireClient {
	clientRead, serverWrite := io.Pipe()
	serverRead, clientWrite := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(rwPair{serverRead, serverWrite})
	}()
	sc := bufio.NewScanner(clientRead)
	sc.Buffer(make([]byte, 64*1024), 256<<20)
	return &wireClient{w: clientWrite, sc: sc, stop: func() {
		clientWrite.Close() // EOF ends the server's request loop
		<-done
		serverWrite.Close()
	}}
}

// call sends one request and returns its response; a failed response
// is an error.
func (c *wireClient) call(req *serve.Request) (*serve.Response, error) {
	c.next++
	req.ID = fmt.Sprintf("%s-%d", req.Op, c.next)
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("%s: write: %w", req.Op, err)
	}
	if !c.sc.Scan() {
		return nil, fmt.Errorf("%s: connection closed: %v", req.Op, c.sc.Err())
	}
	var resp serve.Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("%s: bad response: %w", req.Op, err)
	}
	switch {
	case resp.ID != req.ID:
		return nil, fmt.Errorf("%s: response id %q, want %q", req.Op, resp.ID, req.ID)
	case !resp.OK:
		return nil, fmt.Errorf("%s: %s: %s", req.Op, resp.ErrKind, resp.Error)
	}
	return &resp, nil
}

// editSession is one client's session: its connection, and the loaded
// module as parsed from a dump, whose filler bodies are the edit donors.
type editSession struct {
	c       *wireClient
	session string
	base    *ir.Module
	fillers int
	edits   int // edits sent; only the session's client touches it
}

// nextDelta returns the session's next edit. The k-th edit of the
// rotation gives filler r the body of another filler, a different donor
// on every pass, so every edit changes exactly one function to a body
// the cache has never seen.
func (s *editSession) nextDelta() string {
	k := s.edits
	s.edits++
	r := k % s.fillers
	d := (r + 1 + k/s.fillers) % s.fillers
	if d == r {
		d = (d + 1) % s.fillers
	}
	donor := ir.FuncString(s.base.Func(fmt.Sprintf("lg_compute%d", d)))
	return strings.Replace(donor, fmt.Sprintf("@lg_compute%d(", d), fmt.Sprintf("@lg_compute%d(", r), 1)
}

// serveRig is one daemon with a session per client.
type serveRig struct {
	srv      *serve.Server
	prov     *obs.Provider
	sessions []*editSession
}

func (g *serveRig) close() {
	for _, s := range g.sessions {
		s.c.stop()
	}
}

// newServeRig starts a daemon and, per client, loads its own generated
// module into its own session and cold-ports it.
func newServeRig(cfg Config) (*serveRig, error) {
	g := &serveRig{prov: obs.New()}
	// The daemon's spans would interleave concurrent sessions' pipeline
	// spans on one track, so it gets a metrics-only provider; its
	// serve.op_* histograms give the server-side op times. The clients
	// already keep nproc ports busy, so each port's fan-out shares
	// Workers among them rather than oversubscribing the host.
	g.srv = serve.New(serve.Options{Workers: max(1, cfg.Workers/cfg.Clients), Obs: g.prov})
	for i := 0; i < cfg.Clients; i++ {
		spec := appgen.LargeSpec(fmt.Sprintf("edit%d.c", i), cfg.ServeLines, cfg.Seed*64+int64(i))
		src, _ := appgen.GenerateLarge(spec)
		s := &editSession{c: dial(g.srv), session: fmt.Sprintf("client%d", i), fillers: spec.FillerFuncs}
		g.sessions = append(g.sessions, s)
		if s.fillers < 2 {
			g.close()
			return nil, fmt.Errorf("module %s has %d fillers; edits need 2", spec.Name, s.fillers)
		}
		for _, req := range []*serve.Request{
			{Op: "load", Session: s.session, Name: spec.Name, Source: src},
			{Op: "port", Session: s.session},
		} {
			if _, err := s.c.call(req); err != nil {
				g.close()
				return nil, err
			}
		}
		dump, err := s.c.call(&serve.Request{Op: "dump", Session: s.session})
		if err == nil {
			s.base, err = ir.ParseModule(dump.Text)
		}
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dump %s: %w", s.session, err)
		}
	}
	return g, nil
}

// roundTrip is one timed edit+port.
type roundTrip struct {
	edit, port, portPipeline time.Duration
}

// runServeEdit is the serve-edit workload: nproc clients in a closed
// loop, each sending an edit of one filler function and a port of its
// own session through serve.ServeConn. Every port must miss the
// detection cache exactly once (the edited function); at the end every
// session's emitted port must be byte-identical to a cold atomig.Port
// of its dumped module.
func runServeEdit(cfg Config) (*Result, error) {
	r := newResult("serve-edit", cfg, cfg.Clients)
	g, err := timeSetup(r, cfg, func() (*serveRig, error) { return newServeRig(cfg) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer g.close()

	before := g.prov.Snapshot()
	statsBefore, err := g.sessions[0].c.call(&serve.Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	trips := map[*obs.Provider][]roundTrip{}
	untraced, traced := measure(r, cfg, cfg.Clients, 100, func(prov *obs.Provider) opFunc {
		tracks := make([]*obs.Track, cfg.Clients)
		for i := range tracks {
			tracks[i] = prov.Track(fmt.Sprintf("bench.client-%d", i))
		}
		return func(c, seq int) (time.Duration, error) {
			s := g.sessions[c]
			delta := s.nextDelta()
			id := opID("serve-edit", c, seq)
			sp := benchSpan(tracks[c], "serve.edit", id)
			t0 := time.Now()
			_, err := s.c.call(&serve.Request{Op: "edit", Session: s.session, Replace: []string{delta}})
			t1 := time.Now()
			sp.End()
			if err != nil {
				return t1.Sub(t0), err
			}
			sp = benchSpan(tracks[c], "serve.port", id)
			resp, err := s.c.call(&serve.Request{Op: "port", Session: s.session})
			t2 := time.Now()
			sp.End()
			if err != nil {
				return t2.Sub(t0), err
			}
			rep := resp.Report
			if rep == nil || rep.CacheMisses != 1 {
				return t2.Sub(t0), fmt.Errorf("port after a one-function edit: report %+v, want exactly 1 cache miss", rep)
			}
			mu.Lock()
			trips[prov] = append(trips[prov], roundTrip{
				edit: t1.Sub(t0), port: t2.Sub(t1), portPipeline: rep.Duration,
			})
			mu.Unlock()
			return t2.Sub(t0), nil
		}
	})
	after := g.prov.Snapshot()
	statsAfter, err := g.sessions[0].c.call(&serve.Request{Op: "stats"})
	r.op(err)

	// The reference: each session's emitted port against a cold
	// sequential port of its dumped module.
	for _, s := range g.sessions {
		r.op(checkSessionPort(s))
	}

	r.recordLoop(untraced)
	r.Detail["edit_port_p50_ms"] = r.Metrics["op_p50_ms"]
	r.Detail["edit_port_p90_ms"] = quantile(msList(untraced.lats()), 0.9)
	r.Detail["roundtrips_per_s"] = r.Metrics["ops_per_s"]
	r.Detail["roundtrips"] = float64(untraced.count())
	if traced != nil && statsAfter != nil {
		layerServeMetrics(r, trips[traced.prov])
		// Queue time and the cache and shed counters cover every round
		// trip, traced or not: client round trip minus the server's
		// time in the two ops, per round trip.
		var clientMS float64
		for _, d := range append(untraced.lats(), traced.lats()...) {
			clientMS += ms(d)
		}
		var serverMS float64
		for _, op := range []string{"edit", "port"} {
			name := "serve.op_" + op + "_duration_micros"
			serverMS += float64(after.Histograms[name].Sum-before.Histograms[name].Sum) / 1e3
		}
		r.Metrics["serve.queue_ms"] = (clientMS - serverMS) / float64(untraced.count()+traced.count())
		s0, s1 := statsBefore.Stats, statsAfter.Stats
		hits := float64(s1.CacheHits - s0.CacheHits)
		lookups := hits + float64(s1.CacheMisses-s0.CacheMisses)
		r.Metrics["serve.cache_lookups"] = lookups
		if lookups > 0 {
			r.Metrics["serve.cache_hit_ratio"] = hits / lookups
		}
		r.Metrics["serve.shed"] = float64(s1.Overloaded - s0.Overloaded)
	}
	return r, nil
}

// checkSessionPort compares the daemon's emitted port of a session
// with a cold atomig.Port of the session's dumped module.
func checkSessionPort(s *editSession) error {
	dump, err := s.c.call(&serve.Request{Op: "dump", Session: s.session})
	if err != nil {
		return err
	}
	emitted, err := s.c.call(&serve.Request{Op: "port", Session: s.session, Emit: true})
	if err != nil {
		return err
	}
	if err := matchColdPort(emitted.Text, dump.Text); err != nil {
		return fmt.Errorf("session %s: %w", s.session, err)
	}
	return nil
}

// matchColdPort checks a daemon's emitted port against a cold
// sequential atomig.Port of the dumped module.
func matchColdPort(emitted, dump string) error {
	m, err := ir.ParseModule(dump)
	if err != nil {
		return fmt.Errorf("parse dump: %w", err)
	}
	opts := atomig.DefaultOptions()
	opts.Workers = 1
	if _, err := atomig.Port(m, opts); err != nil {
		return fmt.Errorf("reference port: %w", err)
	}
	if want := m.String(); emitted != want {
		return fmt.Errorf("daemon port differs from a cold port of the dump (%d vs %d bytes)", len(emitted), len(want))
	}
	return nil
}

// layerServeMetrics fills the serve and atomig layer metrics from the
// traced phase's round trips; atomig.port_ms is the pipeline's own
// Report.Duration.
func layerServeMetrics(r *Result, trips []roundTrip) {
	var edit, port, overhead, pipeline []float64
	for _, t := range trips {
		edit = append(edit, ms(t.edit))
		port = append(port, ms(t.port))
		overhead = append(overhead, ms(t.port-t.portPipeline))
		pipeline = append(pipeline, ms(t.portPipeline))
	}
	r.Metrics["serve.edit_p50_ms"] = median(edit)
	r.Metrics["serve.edit_p90_ms"] = quantile(edit, 0.9)
	r.Metrics["serve.port_p50_ms"] = median(port)
	r.Metrics["serve.port_p90_ms"] = quantile(port, 0.9)
	r.Metrics["serve.port_overhead_ms"] = median(overhead)
	r.Metrics["atomig.port_ms"] = median(pipeline)
}

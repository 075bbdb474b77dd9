package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

// baseConfig is the machine template every daemon and reference engine
// runs under: wpserved's.
func baseConfig() sim.Config {
	base := sim.Default()
	base.MaxInstrs = experiment.MaxInstrs
	return base
}

// provider is wpserved's workload source (build, profile, relink via
// experiment.Prepare). Engine workers call it, so its spans are
// unparented.
func provider(tr *tracer) engine.Provider {
	return func(ctx context.Context, name string) (*engine.Workload, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		w, err := experiment.Prepare(name)
		tr.timed(spanPrepare, start, 0)
		if err != nil {
			return nil, err
		}
		return &engine.Workload{Name: name, Original: w.Original, Placed: w.Placed}, nil
	}
}

// daemon is one in-process wpserved: a store-backed engine, the serve
// facade with an async-job journal, and an HTTP server on a 127.0.0.1
// socket.
type daemon struct {
	dir  string
	st   *store.Store
	jnl  *store.Journal
	eng  *engine.Engine
	srv  *serve.Server
	reg  *obs.Registry
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

// startDaemon boots a daemon with a fresh store and journal in dir and
// prepares every benchmark on its engine. Its POST /v1/runs handler is
// wrapped in a span named spanName when tracing.
func startDaemon(ctx context.Context, cfg *config, dir string, nworkers int, tr *tracer, spanName string, by linkBy) (*daemon, error) {
	base := baseConfig()
	d := &daemon{dir: dir}
	if tr != nil {
		d.reg = obs.NewRegistry()
	}
	var err error
	if d.st, err = store.Open(store.Options{Dir: dir, Fingerprint: store.Fingerprint(base)}); err != nil {
		return nil, err
	}
	if d.jnl, err = store.OpenJournal(filepath.Join(dir, "journal.wal"), nil); err != nil {
		d.st.Close()
		return nil, err
	}
	var tierOpt engine.Option = engine.WithStore(d.st)
	if tr != nil {
		tierOpt = engine.WithStore(tier{st: d.st, tr: tr})
	}
	d.eng = engine.New(provider(tr),
		engine.WithBaseConfig(base), engine.WithWorkers(nworkers),
		engine.WithVerify(tr.verifier()), tierOpt)
	if err := d.eng.Prepare(ctx, cfg.names); err != nil {
		d.closeStore()
		return nil, err
	}
	if d.srv, err = serve.New(serve.Options{Engine: d.eng, Journal: d.jnl, Registry: d.reg}); err != nil {
		d.closeStore()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeStore()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: tr.handler(spanName, by, d.srv.Handler())}
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

func (d *daemon) closeStore() {
	d.jnl.Close()
	d.st.Close()
}

// close stops the HTTP server and drains the serve facade, closes the
// store and journal and deletes their directory.
func (d *daemon) close(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	<-d.done
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if jerr := d.jnl.Close(); err == nil {
		err = jerr
	}
	if serr := d.st.Close(); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// newHTTPClient returns a client with its own single keep-alive
// connection, counting round trips. One per closed-loop client, so the
// server sees one connection per client.
func newHTTPClient() (*http.Client, *countingTransport) {
	t := serve.NewTransport(1)
	ct := &countingTransport{next: t}
	return &http.Client{Transport: ct, Timeout: 60 * time.Second}, ct
}

// withConnAddr makes the request context report the local address of
// the connection the request goes out on (the server's RemoteAddr).
func withConnAddr(ctx context.Context, addr *string) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { *addr = info.Conn.LocalAddr().String() },
	})
}

// pollInterval is how often an async batch's job is polled.
const pollInterval = 5 * time.Millisecond

// runAsync submits reqs as an async batch and polls the job until it
// is final, returning the answer and how many polls it took.
func runAsync(ctx context.Context, hc *http.Client, baseURL string, reqs []api.RunRequest) (*api.BatchResponse, int64, error) {
	body, err := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: reqs, Async: true})
	if err != nil {
		return nil, 0, err
	}
	resp, err := exchange(ctx, hc, http.MethodPost, baseURL+"/v1/runs", body)
	var polls int64
	for err == nil && resp.Status != api.StatusDone && resp.Status != api.StatusFailed {
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			return nil, polls, ctx.Err()
		}
		polls++
		resp, err = exchange(ctx, hc, http.MethodGet, baseURL+"/v1/runs/"+resp.JobID, nil)
	}
	return resp, polls, err
}

// exchange is one HTTP round trip answering a BatchResponse (200/202).
func exchange(ctx context.Context, hc *http.Client, method, url string, body []byte) (*api.BatchResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, hr.StatusCode, bytes.TrimSpace(data))
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return &resp, nil
}

// checkResponse reports why a batch answer is not a complete success.
func checkResponse(resp *api.BatchResponse, reqs []api.RunRequest) error {
	if resp.Status != api.StatusDone || len(resp.Errors) > 0 {
		return fmt.Errorf("batch %s: status %s, %d cell errors", resp.JobID, resp.Status, len(resp.Errors))
	}
	if len(resp.Results) != len(reqs) {
		return fmt.Errorf("batch %s: %d results for %d cells", resp.JobID, len(resp.Results), len(reqs))
	}
	for i, r := range resp.Results {
		if r.Stats == nil || r.Key != reqs[i].Key() {
			return fmt.Errorf("batch %s: result %d is %q without stats or for the wrong cell", resp.JobID, i, r.Key)
		}
	}
	return nil
}

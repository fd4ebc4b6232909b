package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"piileak/internal/serve"
)

// service is an in-process piiserve on a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	served chan error
	client *http.Client
}

// startService opens the job store under dir and serves it with the
// given number of study slots.
func startService(dir string, slots int) (*service, error) {
	srv, err := serve.New(serve.Config{Dir: dir, Slots: slots})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (s *service) stop() {
	s.hs.Close()
	<-s.served
	s.cancel()
	s.srv.Wait()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// jobTrace is one job as a client sees it: the timestamps of each step
// and the leak bytes it fetched.
type jobTrace struct {
	seed                                    uint64
	sent, submitted, running, done, fetched time.Time
	status                                  int // POST status
	leaks                                   []byte
	err                                     error
}

// rejected reports whether admission control refused the job.
func (j *jobTrace) rejected() bool {
	return j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable
}

// runJob submits one small job, follows its event stream to the
// terminal event and fetches its leaks.
func (s *service) runJob(ctx context.Context, seed uint64) jobTrace {
	j := jobTrace{seed: seed}
	body, _ := json.Marshal(serve.Spec{Seed: seed, Small: true}) // a Spec always marshals
	j.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	j.submitted = time.Now()
	j.status = resp.StatusCode
	if resp.StatusCode != http.StatusCreated || err != nil {
		j.err = fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
		return j
	}
	if j.err = s.follow(ctx, view.ID, &j); j.err != nil {
		return j
	}
	j.leaks, j.err = s.get(ctx, "/v1/jobs/"+view.ID+"/leaks")
	j.fetched = time.Now()
	return j
}

// follow reads the job's JSONL event stream, stamping the first
// "running" state and the terminal event. A stream the server cut
// short is resumed after the last event seen.
func (s *service) follow(ctx context.Context, id string, j *jobTrace) error {
	var last int64
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/events?format=jsonl&after=%d", s.url, id, last), nil)
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var ev serve.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				resp.Body.Close()
				return fmt.Errorf("event stream: %w", err)
			}
			last = ev.ID
			if ev.Kind != "state" && ev.Kind != "done" {
				continue
			}
			var view serve.JobView
			if err := json.Unmarshal(ev.Data, &view); err != nil {
				resp.Body.Close()
				return fmt.Errorf("event stream: %w", err)
			}
			if view.State == serve.StateRunning && j.running.IsZero() {
				j.running = time.Now()
			}
			if ev.Kind == "done" {
				j.done = time.Now()
				resp.Body.Close()
				if view.State != serve.StateDone {
					return fmt.Errorf("job %s ended %s: %s", id, view.State, view.Error)
				}
				return nil
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("event stream: %w", err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, err
}

// walBytes is the size of the service's job log.
func (s *service) walBytes() int64 {
	fi, err := os.Stat(serve.StorePath(s.srv.Store().Dir()))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// jobSeed gives job j of a run its own ecosystem seed, derived from
// the workload seed; it is never 0, which a spec reads as "default".
func jobSeed(seed uint64, j int) uint64 { return seed<<20 | uint64(j+1) }

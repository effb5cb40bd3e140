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
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"multicluster/internal/sweep"
)

// maxConns is the most connections the benchmark ever opens to the
// server: the box it was calibrated on has two cores, and a single client
// process with two connections is the load the service workloads model.
const maxConns = 2

// server is one mcserved child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has ended
}

// startServer starts mcserved with two workers on a free loopback port and
// waits until /readyz answers 200. With log set, the server's stderr (its
// access log) is parsed into it; otherwise it is discarded.
func startServer(ctx context.Context, bin string, hc *http.Client, log *accessLog) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command(bin, "-workers", "2", "-addr", addr)
	if log != nil {
		cmd.Stderr = log
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mcserved: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	for {
		if ready(ctx, hc, s.base) {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("mcserved exited before it was ready: %v", cmd.ProcessState)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, errors.New("mcserved not ready after 30s")
		}
	}
}

func ready(ctx context.Context, hc *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop shuts the server down gracefully (SIGTERM drains it) and waits for
// the process to end, killing it if it takes more than ten seconds.
// Stopping a stopped (or nil) server does nothing.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM reads a process's resident-set high-water mark in MB from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat, whose times are in USER_HZ ticks (100 per second on
// Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start with field 3, so utime (14) and stime (15)
	// are the 12th and 13th.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// scrape reads and parses the server's /metrics.
func (s *server) scrape(ctx context.Context, hc *http.Client) (*sweep.ScrapedMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return sweep.ParseMetricsText(resp.Body)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		// A zero Transport uses no proxy; MaxConnsPerHost is a hard cap
		// on dialing, active and idle connections together.
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// accessLog collects mcserved's slog access-log lines ("msg=request
// id=... method=... path=... status=... dur_ms=...") keyed by request
// id. It is the server's stderr writer, so it must accept partial lines.
type accessLog struct {
	mu      sync.Mutex
	partial []byte
	byID    map[string]logEntry
}

type logEntry struct {
	Method, Path string
	Status       int
	DurMS        float64
}

func newAccessLog() *accessLog { return &accessLog{byID: make(map[string]logEntry)} }

func (l *accessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.parse(string(l.partial[:i]))
		l.partial = l.partial[i+1:]
	}
}

func (l *accessLog) parse(line string) {
	if !strings.Contains(line, " msg=request ") {
		return
	}
	var id string
	var e logEntry
	sc := bufio.NewScanner(strings.NewReader(line))
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), "=")
		if !ok {
			continue
		}
		switch k {
		case "id":
			id = v
		case "method":
			e.Method = v
		case "path":
			e.Path = v
		case "status":
			e.Status, _ = strconv.Atoi(v)
		case "dur_ms":
			e.DurMS, _ = strconv.ParseFloat(v, 64)
		}
	}
	if id != "" {
		l.byID[id] = e
	}
}

func (l *accessLog) lookup(id string) (logEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	return e, ok
}

// route names the API operation a request addressed, for per-handler
// timings.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "jobs_submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		return "jobs_get"
	case path == "/v1/table2":
		return "table2"
	case method == http.MethodPost && path == "/v1/sweeps":
		return "sweeps_create"
	case strings.HasPrefix(path, "/v1/sweeps/") && strings.HasSuffix(path, "/results"):
		return "sweeps_results"
	}
	return "other"
}

// api sends requests to one server. With rec set, every request is
// recorded as a span (with its client-side phases as children) and tagged
// with an X-Request-ID that the server's access log echoes, so the
// server's own handler time can be joined to it afterwards.
type api struct {
	base string
	hc   *http.Client
	rec  *recorder
}

// call sends one request with body (nil: none) encoded as JSON, reads
// the whole response body, and returns the status and body. The span,
// when tracing, is a child of parent in trace.
func (c *api) call(ctx context.Context, trace string, parent int64, method, path string, body any) (int, []byte, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.rec == nil {
		return c.send(req)
	}

	id := c.rec.newID()
	reqID := "mcperf-" + strconv.FormatInt(id, 10)
	req.Header.Set("X-Request-ID", reqID)
	var gotConn, wrote, firstByte time.Time
	req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
		WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
		GotFirstResponseByte: func() { firstByte = time.Now() },
	}))
	status, out, err := c.send(req)
	end := time.Now()
	c.rec.add(trace, id, parent, "http", start, end, map[string]any{
		"route": route(method, path), "request_id": reqID, "status": status})
	if err == nil {
		phases := []struct {
			name     string
			from, to time.Time
		}{
			{"client.get_conn", start, gotConn}, // includes encoding the request
			{"client.write", gotConn, wrote},
			{"server.wait", wrote, firstByte},
			{"client.read", firstByte, end},
		}
		for _, p := range phases {
			c.rec.add(trace, 0, id, p.name, p.from, p.to, nil)
		}
	}
	return status, out, err
}

// decode runs f, the client's own work on a response (decoding and
// checking it), recording it as a span when tracing.
func (c *api) decode(trace string, parent int64, f func() error) error {
	if c.rec == nil {
		return f()
	}
	return c.rec.timed(trace, parent, "client.decode", nil, f)
}

func (c *api) send(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

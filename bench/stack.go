package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/server"
	"funcdb/internal/shard"
	"funcdb/internal/store"
	"funcdb/internal/watch"
)

// stackConfig says which serving stack a workload needs.
type stackConfig struct {
	// Preload maps database names to program sources loaded at start-up
	// (through -preload, as an operator would).
	Preload map[string]string
	// Durable starts fdbd with -data <tmp> -fsync always.
	Durable bool
	// Router puts fdbrouter in front of fdbd.
	Router bool
}

// stack is a running serving stack: the shipping binaries as child
// processes, or (for the smoke test) the same handlers in this process.
type stack struct {
	Direct string // fdbd base URL
	Routed string // fdbrouter base URL; empty without a router

	fdbd, router *daemon // nil for an in-process stack
	dir          string  // scratch directory removed by Close
	closers      []func() error
}

// launcher starts stacks.
type launcher struct {
	// FDBD and Router are paths of the built binaries; both empty selects
	// the in-process stack.
	FDBD, Router string
	// TmpRoot holds per-stack scratch directories (preload files, WAL).
	TmpRoot string
}

func (l launcher) inProcess() bool { return l.FDBD == "" }

// Launch starts the stack and waits until every daemon reports ready.
func (l launcher) Launch(cfg stackConfig) (*stack, error) {
	if err := os.MkdirAll(l.TmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(l.TmpRoot, "stack-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()
	preDir := filepath.Join(dir, "preload")
	if err := os.Mkdir(preDir, 0o755); err != nil {
		return nil, err
	}
	for name, src := range cfg.Preload {
		if err := os.WriteFile(filepath.Join(preDir, name+".fdb"), []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	dataDir := ""
	if cfg.Durable {
		dataDir = filepath.Join(dir, "data")
	}
	if l.inProcess() {
		if err := st.startInProcess(preDir, dataDir, cfg.Router); err != nil {
			return nil, err
		}
	} else {
		args := []string{"-addr", "127.0.0.1:0", "-preload", preDir}
		if cfg.Durable {
			args = append(args, "-data", dataDir, "-fsync", store.FsyncAlways)
		}
		if st.fdbd, err = startDaemon(l.FDBD, args...); err != nil {
			return nil, err
		}
		st.Direct = st.fdbd.url
		if cfg.Router {
			mapPath := filepath.Join(dir, "shardmap.json")
			if err := shard.WriteFile(mapPath, oneGroupMap(st.Direct)); err != nil {
				return nil, err
			}
			if st.router, err = startDaemon(l.Router, "-addr", "127.0.0.1:0", "-map", mapPath); err != nil {
				return nil, err
			}
			st.Routed = st.router.url
		}
	}
	for _, base := range []string{st.Direct, st.Routed} {
		if base == "" {
			continue
		}
		if err := waitReady(base); err != nil {
			return nil, err
		}
	}
	ok = true
	return st, nil
}

func oneGroupMap(primary string) *shard.Map {
	return &shard.Map{Version: 1, Groups: []shard.Group{{Name: "g0", Primary: primary}}}
}

// startInProcess wires registry -> server (-> router) on loopback listeners
// with the daemons' default configuration.
func (st *stack) startInProcess(preDir, dataDir string, router bool) error {
	reg := registry.New(core.Options{})
	cfg := server.Config{}
	if dataDir != "" {
		s, err := store.Open(store.Options{Dir: dataDir, Fsync: store.FsyncAlways})
		if err != nil {
			return err
		}
		st.closers = append(st.closers, s.Close)
		if _, err := s.Recover(reg); err != nil {
			return err
		}
		cfg.ExtraGauges = s.Gauges
		hub := watch.NewHub(watch.Options{Reg: reg, LSN: s.LastLSN})
		reg.SetNotifier(hub.Notify)
		cfg.Watch = hub
		st.closers = append(st.closers, func() error { hub.Close(); return nil })
	}
	if _, err := reg.LoadDir(preDir); err != nil {
		return err
	}
	direct, err := serveLoopback(server.New(reg, cfg).Handler(), nil)
	if err != nil {
		return err
	}
	st.closers = append(st.closers, direct.Close)
	st.Direct = "http://" + direct.Addr
	if router {
		src := shard.NewSource(oneGroupMap(st.Direct))
		rt := shard.NewRouter(src, shard.Options{})
		front, err := serveLoopback(rt, nil)
		if err != nil {
			return err
		}
		st.closers = append(st.closers, func() error { rt.Close(); src.Close(); return nil }, front.Close)
		st.Routed = "http://" + front.Addr
	}
	return nil
}

// Close stops the daemons (SIGTERM, then waits) and removes the scratch
// directory.
func (st *stack) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.router != nil {
		keep(st.router.stop())
	}
	if st.fdbd != nil {
		keep(st.fdbd.stop())
	}
	// Newest first: listeners close before the hub and store they serve.
	for i := len(st.closers) - 1; i >= 0; i-- {
		keep(st.closers[i]())
	}
	st.closers = nil
	if st.dir != "" {
		keep(os.RemoveAll(st.dir))
	}
	return first
}

// usage is cumulative CPU time and resident memory of one process.
type usage struct {
	CPU time.Duration
	// RSSMB is the peak (VmHWM), ResidentMB the current (VmRSS) size.
	RSSMB, ResidentMB float64
}

// Usage reads the daemons' cumulative CPU and peak RSS from /proc. For an
// in-process stack the handlers share this process, so everything is
// attributed to the server and the router reads zero.
func (st *stack) Usage() (srv, rtr usage, err error) {
	if st.fdbd == nil {
		return selfUsage(), usage{}, nil
	}
	if srv, err = procUsage(st.fdbd.cmd.Process.Pid); err != nil {
		return
	}
	if st.router != nil {
		rtr, err = procUsage(st.router.cmd.Process.Pid)
	}
	return
}

// loopbackServer is an http.Server on a 127.0.0.1 port of the kernel's
// choosing.
type loopbackServer struct {
	Addr string
	srv  *http.Server
	done chan error
}

func serveLoopback(h http.Handler, connState func(net.Conn, http.ConnState)) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &loopbackServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: h, ConnState: connState, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.srv.Serve(ln) }()
	return ls, nil
}

// Close stops the server and waits for its accept loop to return.
func (ls *loopbackServer) Close() error {
	err := ls.srv.Close()
	<-ls.done
	return err
}

// daemon is one child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logs *syncBuffer
	// drained closes when the stdout reader has seen EOF.
	drained chan struct{}
}

// syncBuffer collects a child's output for error reports.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon launches bin and waits for its "listening on http://ADDR"
// line, which carries the port the kernel picked for -addr 127.0.0.1:0.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), logs: &syncBuffer{}, drained: make(chan struct{})}
	d.cmd.Stderr = d.logs
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.logs, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case d.url = <-addr:
		return d, nil
	case <-d.drained:
		err = fmt.Errorf("%s exited before listening:\n%s", filepath.Base(bin), d.logs)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("%s did not start listening within 30s:\n%s", filepath.Base(bin), d.logs)
	}
	d.stop()
	return nil, err
}

// stop asks the daemon to shut down gracefully and waits for it to exit,
// killing it if it has not within 15 s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w\n%s", filepath.Base(d.cmd.Path), err, d.logs)
	}
	return nil
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux port Go runs
// on.
const clockTick = 100

// procUsage reads utime+stime from /proc/<pid>/stat and VmHWM and VmRSS
// from /proc/<pid>/status.
func procUsage(pid int) (usage, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return usage{}, err
	}
	// The command name may contain spaces; fields are counted after ")".
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return usage{}, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("malformed /proc/%d/stat cpu fields", pid)
	}
	u := usage{CPU: time.Duration(utime+stime) * time.Second / clockTick}
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return usage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		for prefix, dst := range map[string]*float64{"VmHWM:": &u.RSSMB, "VmRSS:": &u.ResidentMB} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return usage{}, fmt.Errorf("malformed %s in /proc/%d/status", prefix, pid)
				}
				*dst = kb / 1024
			}
		}
	}
	return u, nil
}

// selfUsage is this process's CPU (getrusage) and peak RSS.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{CPU: cpu, RSSMB: float64(ru.Maxrss) / 1024}
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz: %w", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrape fetches base/metrics and returns every series by its full name
// (labels included, as printed).
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta returns after[name]-before[name]; a series absent from both reads 0.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// postJSON sends body and decodes a 200 response into out; any other status
// is an error carrying the response text.
func postJSON(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

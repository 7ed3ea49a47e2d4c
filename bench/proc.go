package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot locates the repository under test: the directory holding
// cmd/serverd. The driver runs the benchmark from the root; `go run -C
// bench .` runs it from bench/.
func findRoot() (string, error) {
	for _, c := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(c, "cmd", "serverd", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("cannot find the repository root: no cmd/serverd/main.go here or one level up")
}

// buildBinaries compiles buildindex and serverd from the commit under
// test into <root>/.bench_build/bin. The Go build cache makes a repeat a
// staleness check.
func buildBinaries(root string) (binDir string, err error) {
	binDir = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/buildindex", "./cmd/serverd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/buildindex ./cmd/serverd: %v\n%s", err, out)
	}
	return binDir, nil
}

// ---------------------------------------------------------------------------
// Clean-up: child processes and scratch directories never outlive the run.

var cleanup struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
	dirs  []string
}

func trackDir(dir string) {
	cleanup.mu.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.mu.Unlock()
}

// cleanupAll kills every live child, waits for it, and removes the
// scratch directories. Safe to call more than once.
func cleanupAll() {
	cleanup.mu.Lock()
	procs := make([]*serverProc, 0, len(cleanup.procs))
	for p := range cleanup.procs {
		procs = append(procs, p)
	}
	dirs := cleanup.dirs
	cleanup.dirs = nil
	cleanup.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// installSignalCleanup makes SIGINT/SIGTERM tear everything down before
// the process exits.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanupAll()
		os.Exit(130)
	}()
}

// ---------------------------------------------------------------------------
// serverd child process

type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logPath string
	started time.Time
	done    chan struct{} // closed when Wait returns
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches serverd on a free loopback port with the given
// extra flags; its log goes to logPath.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	p := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	cleanup.mu.Lock()
	if cleanup.procs == nil {
		cleanup.procs = map[*serverProc]struct{}{}
	}
	cleanup.procs[p] = struct{}{}
	cleanup.mu.Unlock()
	go func() {
		_ = cmd.Wait() // a killed child reports its signal; nothing to act on
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200 and returns the time
// since the process was started.
func (p *serverProc) waitHealthy(timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return 0, fmt.Errorf("serverd exited during boot; log:\n%s", p.logTail())
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("serverd not healthy after %v; log:\n%s", timeout, p.logTail())
}

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// kill sends SIGKILL and waits for the process to be gone.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	cleanup.mu.Lock()
	delete(cleanup.procs, p)
	cleanup.mu.Unlock()
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		cleanup.mu.Lock()
		delete(cleanup.procs, p)
		cleanup.mu.Unlock()
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// cpuMillis is the process's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s).
func (p *serverProc) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", s)
	}
	return (ut + st) * 10, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// getJSON fetches one of serverd's introspection endpoints.
func (p *serverProc) getJSON(path string, v any) error {
	resp, err := http.Get(p.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

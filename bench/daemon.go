package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates the checkout and the scratch space under it: everything the
// benchmark writes (the daemon binary, temp dirs, traces) stays inside the
// checkout.
type env struct {
	root     string // checkout root: holds go.mod of module repro
	buildDir string // <root>/.bench_build
	outDir   string // <root>/bench/out
	craqrd   string // built daemon binary
}

func newEnv(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "craqrd", "main.go")); err != nil {
		return nil, fmt.Errorf("bench: %s is not a CrAQR checkout (no cmd/craqrd): %w", abs, err)
	}
	e := &env{
		root:     abs,
		buildDir: filepath.Join(abs, ".bench_build"),
		outDir:   filepath.Join(abs, "bench", "out"),
	}
	e.craqrd = filepath.Join(e.buildDir, "craqrd")
	for _, d := range []string{e.buildDir, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildDaemon compiles cmd/craqrd from the checkout's source before any
// clock starts; with a warm build cache this is a no-op relink check.
func (e *env) buildDaemon(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.craqrd, "./cmd/craqrd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: building craqrd: %w\n%s", err, out)
	}
	return nil
}

// tempDir makes a run-private directory on the real disk under the checkout.
func (e *env) tempDir() (string, error) {
	base := filepath.Join(e.buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// daemon is one craqrd child process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	port  int
	log   *os.File
	start time.Time     // exec time: setup_s and recovery_s start here
	done  chan struct{} // closed once the child has been reaped
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs craqrd on a free loopback port (or the given one, so a
// restarted daemon keeps its URL) and waits for /v1/healthz. dataDir ""
// runs without durability.
func (e *env) startDaemon(ctx context.Context, dir, dataDir string, port int) (*daemon, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, err
		}
	}
	logf, err := os.OpenFile(filepath.Join(dir, "craqrd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-sessions", "8"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "batch")
	}
	cmd := exec.Command(e.craqrd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, port: port, url: "http://127.0.0.1:" + strconv.Itoa(port), log: logf, start: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: starting craqrd: %w", err)
	}
	d.done = make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is not news
		close(d.done)
	}()
	if err := d.waitHealthy(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: craqrd not healthy after 60s: %v\n%s", err, d.logTail())
		}
		// A crashed child never becomes healthy: fail now rather than at the
		// deadline.
		if d.exited() {
			return fmt.Errorf("bench: craqrd exited during start-up\n%s", d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// kill sends SIGKILL (the crash of durable_crash, and every teardown: a
// benchmark daemon has nothing worth a graceful drain) and reaps the child.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if the child is already gone
	<-d.done
	d.log.Close()
	d.cmd = nil
}

// procSample is one reading of /proc/<pid>: CPU in seconds, peak RSS in MB.
type procSample struct {
	cpuS  float64
	hwmMB float64
}

const clockTick = 100 // USER_HZ on Linux

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised comm; utime and stime are fields 14, 15.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, errors.New("bench: malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 14 {
		return s, errors.New("bench: short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return s, errors.New("bench: unparsable /proc stat times")
	}
	s.cpuS = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return s, err
			}
			s.hwmMB = kb / 1024
		}
	}
	return s, nil
}

func (d *daemon) proc() (procSample, error) { return readProc(d.cmd.Process.Pid) }

// selfCPU is the generator's own user+system CPU time.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

package main

// Child-process hygiene: every program under test (kvserve, and the
// harness's own embedded-workload child) is started through startChild, is
// bound to a free port (-addr 127.0.0.1:0), has its output captured under
// bench/out/, fails the workload if it exits early, and is killed — and
// waited for — on every exit path, including SIGINT.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// startTimeout bounds exec -> "listening on". The slowest set-up today
	// is the durable preload of mixed-durable-c16 (~11-15 s).
	startTimeout = 120 * time.Second
	// stopTimeout bounds SIGINT -> exit before the child is killed outright.
	stopTimeout = 20 * time.Second
	// listenMarker precedes the bound address on kvserve's stdout.
	listenMarker = "listening on "
)

// repoRoot finds the checkout root (the directory holding go.mod and
// cmd/kvserve) from the working directory: `go run ./bench` runs at the
// root, `go test ./bench` inside bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "kvserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the iomodels checkout (no go.mod with cmd/kvserve above the working directory)")
		}
		dir = parent
	}
}

// outDir returns <root>/bench/out, creating it.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildKVServe builds the shipped cmd/kvserve into bench/out/ and returns
// the binary's path. The go tool skips the link when the binary is current.
func buildKVServe(root, out string) (string, error) {
	bin := filepath.Join(out, "kvserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kvserve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/kvserve: %v\n%s", err, msg)
	}
	return bin, nil
}

// live tracks running children so that exit paths can reap them. Once
// closing is set no further child starts: a signal that arrives while a
// workload is between two children must not leave the second one behind.
var live = struct {
	sync.Mutex
	set     map[*child]struct{}
	closing bool
}{set: make(map[*child]struct{})}

// killAllChildren kills and waits for every running child and refuses any
// new one: the harness is exiting.
func killAllChildren() {
	live.Lock()
	live.closing = true
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// child is one spawned process under test.
type child struct {
	cmd     *exec.Cmd
	name    string
	logFile *os.File
	started time.Time
	watch   *lineWatcher
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// lineWatcher tees a child's stdout into its log file and reports the first
// line containing marker.
type lineWatcher struct {
	w      io.Writer
	marker string
	buf    []byte
	found  chan markerHit // receives the marker line once
	seen   bool
}

// markerHit is the marker line and the instant it was written.
type markerHit struct {
	line string
	at   time.Time
}

func (lw *lineWatcher) Write(p []byte) (int, error) {
	if !lw.seen {
		lw.buf = append(lw.buf, p...)
		for {
			nl := bytes.IndexByte(lw.buf, '\n')
			if nl < 0 {
				break
			}
			line := string(lw.buf[:nl])
			lw.buf = lw.buf[nl+1:]
			if strings.Contains(line, lw.marker) {
				lw.seen, lw.buf = true, nil
				lw.found <- markerHit{line, time.Now()}
				break
			}
		}
	}
	return lw.w.Write(p)
}

// startChild launches bin with args, logging stdout+stderr to
// bench/out/<name>.log. marker, when non-empty, is the stdout line
// waitMarker waits for.
func startChild(out, name, marker, bin string, args ...string) (*child, error) {
	logFile, err := os.Create(filepath.Join(out, name+".log"))
	if err != nil {
		return nil, err
	}
	c := &child{
		cmd:     exec.Command(bin, args...),
		name:    name,
		logFile: logFile,
		done:    make(chan struct{}),
		watch:   &lineWatcher{w: logFile, marker: marker, found: make(chan markerHit, 1)},
	}
	c.cmd.Stdout = c.watch
	c.cmd.Stderr = logFile
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	live.Lock()
	closing := live.closing
	if !closing {
		live.set[c] = struct{}{}
	}
	live.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		live.Lock()
		delete(live.set, c)
		live.Unlock()
		logFile.Close()
		close(c.done)
	}()
	if closing { // killAllChildren has already swept: reap this one here
		c.kill()
		return nil, fmt.Errorf("bench: start %s: the harness is exiting", name)
	}
	return c, nil
}

// pid returns the child's process id.
func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the child has already terminated.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// waitMarker blocks until the marker line appears and returns it with the
// time from exec to the line. An early exit or the start timeout is an error
// (the log's tail is included so the cause is visible).
func (c *child) waitMarker(timeout time.Duration) (line string, took time.Duration, err error) {
	select {
	case hit := <-c.watch.found:
		return hit.line, hit.at.Sub(c.started), nil
	case <-c.done:
		return "", 0, fmt.Errorf("bench: %s exited before %q (%v)\n%s", c.name, c.watch.marker, c.waitErr, c.logTail())
	case <-time.After(timeout):
		c.kill()
		return "", 0, fmt.Errorf("bench: %s did not print %q within %v\n%s", c.name, c.watch.marker, timeout, c.logTail())
	}
}

// waitListening is waitMarker for kvserve: it returns the bound address.
func (c *child) waitListening() (addr string, took time.Duration, err error) {
	line, took, err := c.waitMarker(startTimeout)
	if err != nil {
		return "", 0, err
	}
	i := strings.Index(line, listenMarker)
	return strings.TrimSpace(line[i+len(listenMarker):]), took, nil
}

// logTail returns the last lines of the child's log, for error messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.logFile.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return "  | " + strings.Join(lines, "\n  | ")
}

// kill terminates the child immediately and waits for it.
func (c *child) kill() {
	if !c.exited() {
		// Kill fails only if the process is already gone, which done covers.
		_ = c.cmd.Process.Kill()
	}
	<-c.done
}

// stop asks the child to shut down cleanly (SIGINT: kvserve then writes its
// span dump), waits up to stopTimeout, and kills it after that. It returns
// an error if the child had to be killed or exited non-zero.
func (c *child) stop() error {
	if c.exited() {
		return nil
	}
	if err := c.cmd.Process.Signal(os.Interrupt); err != nil {
		c.kill()
		return nil
	}
	select {
	case <-c.done:
		if c.waitErr != nil {
			return fmt.Errorf("bench: %s: %w\n%s", c.name, c.waitErr, c.logTail())
		}
		return nil
	case <-time.After(stopTimeout):
		c.kill()
		return fmt.Errorf("bench: %s ignored SIGINT for %v; killed", c.name, stopTimeout)
	}
}

// ---- /proc readers ---------------------------------------------------------

// procSample is one reading of a process's resource counters.
type procSample struct {
	CPUNs    int64 // on-CPU time, all threads
	HWMKiB   int64 // VmHWM
	Syscalls int64 // syscr + syscw; -1 when /proc/<pid>/io is unreadable
}

// userHz is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100 on
// every Linux ABI Go runs on).
const userHz = 100

// readProc samples /proc/<pid>. CPU time comes from the per-thread
// schedstat files (nanoseconds), falling back to stat's utime+stime (10 ms
// ticks) where schedstats are compiled out.
func readProc(pid int) (procSample, error) {
	base := "/proc/" + strconv.Itoa(pid)
	var s procSample

	cpu, err := schedstatCPU(base)
	if err != nil {
		cpu, err = statCPU(base)
		if err != nil {
			return s, err
		}
	}
	s.CPUNs = cpu

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return s, err
	}
	s.HWMKiB = -1
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				s.HWMKiB, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	if s.HWMKiB < 0 {
		return s, fmt.Errorf("bench: no VmHWM in %s/status", base)
	}

	s.Syscalls = -1
	if io, err := os.ReadFile(base + "/io"); err == nil {
		var n int64
		for _, line := range strings.Split(string(io), "\n") {
			if strings.HasPrefix(line, "syscr:") || strings.HasPrefix(line, "syscw:") {
				f := strings.Fields(line)
				if len(f) == 2 {
					v, _ := strconv.ParseInt(f[1], 10, 64)
					n += v
				}
			}
		}
		s.Syscalls = n
	}
	return s, nil
}

func schedstatCPU(base string) (int64, error) {
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return 0, err
	}
	var total int64
	var read int
	var lastErr error
	for _, t := range tasks {
		data, err := os.ReadFile(base + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			lastErr = err // the thread exited between ReadDir and here
			continue
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("bench: empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
		read++
	}
	if read == 0 {
		return 0, fmt.Errorf("bench: no readable schedstat under %s/task: %v", base, lastErr)
	}
	return total, nil
}

func statCPU(base string) (int64, error) {
	data, err := os.ReadFile(base + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("bench: malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("bench: short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: unparsable utime/stime in /proc stat")
	}
	return (utime + stime) * (int64(time.Second) / userHz), nil
}

// hostSteal returns the machine's cumulative steal time — what the
// hypervisor gave to other guests while a vCPU here wanted to run — in
// USER_HZ ticks, from the first line of /proc/stat.
func hostSteal() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("bench: no steal column in /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// stealPct is the share of the machine's CPU time between two hostSteal
// readings, window apart, that was stolen.
func stealPct(begin, end int64, window time.Duration) float64 {
	return 100 * float64(end-begin) / userHz / (window.Seconds() * float64(runtime.NumCPU()))
}

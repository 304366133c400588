package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wlanscale/internal/cluster"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go targets; reading it
// properly needs sysconf(3), which needs cgo.
const clockTick = 100

// proc is one child process the bench started. Wait runs in its own
// goroutine from the start, so "has it exited" is a channel read and a
// kill can always be followed by a bounded wait.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result; read only after done
}

// children holds every proc not yet reaped, so a failure, a timeout or
// a signal can kill them all: the bench must never leave an orphan
// merakid behind.
var children = struct {
	sync.Mutex
	m map[*proc]struct{}
}{m: make(map[*proc]struct{})}

// spawn starts cmd and tracks it until it has been waited for.
func spawn(cmd *exec.Cmd) (*proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	children.m[p] = struct{}{}
	children.Unlock()
	go func() {
		p.err = cmd.Wait()
		children.Lock()
		delete(children.m, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

// kill SIGKILLs the process and waits until it has been reaped.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// killAllChildren SIGKILLs and reaps whatever is still running.
func killAllChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.m))
	for p := range children.m {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; the daemons re-bind them a moment later.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// daemon is one running merakid subprocess.
type daemon struct {
	*proc
	listen, query string
	log           *os.File
	// bootS is spawn → first answered status query.
	bootS float64
}

// startDaemon spawns merakid with fresh ports plus extra flags, its
// stdout and stderr appended to logPath, and returns once the query
// port answers "status".
func startDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", ports[0], "-query", ports[1]}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	p, err := spawn(cmd)
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("start merakid: %w", err)
	}
	d := &daemon{proc: p, listen: ports[0], query: ports[1], log: logf}
	deadline := start.Add(60 * time.Second)
	for {
		if _, err := queryTimeout(d.query, "status", time.Second); err == nil {
			d.bootS = time.Since(start).Seconds()
			return d, nil
		}
		if d.exited() || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("merakid %v did not open its query port (see %s)", extra, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop SIGKILLs the daemon, reaps it and closes its log.
func (d *daemon) stop() {
	d.kill()
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// query sends one query-port command and returns the response lines.
// A response whose first line starts with "ERR", a timeout and a
// truncated response are all errors. It goes through cluster.Router so
// the bench speaks the protocol with the repo's own client.
func query(addr, cmd string) ([]string, error) {
	return queryTimeout(addr, cmd, 60*time.Second)
}

func queryTimeout(addr, cmd string, timeout time.Duration) ([]string, error) {
	r := cluster.Router{Shards: []string{addr}, Timeout: timeout, Retries: -1}
	rep := r.Fanout(cmd)[0]
	if rep.Err != nil {
		return nil, rep.Err
	}
	if len(rep.Lines) > 0 && strings.HasPrefix(rep.Lines[0], "ERR") {
		return nil, errors.New(rep.Lines[0])
	}
	return rep.Lines, nil
}

// statusField finds key=value in the status lines and parses value as
// an integer.
func statusField(lines []string, key string) (int, error) {
	for _, ln := range lines {
		for _, f := range strings.Fields(ln) {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				return strconv.Atoi(v)
			}
		}
	}
	return 0, fmt.Errorf("status has no %s= field", key)
}

// cpuSeconds is the process's utime+stime from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMiB is the process's VmHWM from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM extracts the "VmHWM:  123456 kB" line as MiB.
func parseVmHWM(status string) (float64, error) {
	for _, ln := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(ln, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", ln)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", ln)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// dirBytes sums the apparent sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat.
// Linux fixes USER_HZ at 100 for user space on every architecture this
// benchmark runs on.
const userHZ = 100

// proc is one server process started by the benchmark.
type proc struct {
	name   string
	url    string // http://127.0.0.1:<port>
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches usimd with args plus a fresh loopback -addr. The
// child is killed if the benchmark dies (Pdeathsig), so no server
// outlives a crashed run.
func startServer(name, bin, logPath string, args []string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr, "-log-every", "0")...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // the exit status is reported through waitHealthy/stop
		close(p.exited)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func (p *proc) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		resp, err := client.Do(req)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				cancel()
				return nil
			}
		}
		cancel()
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process
// if it has not gone within the grace period. It returns once the
// process has been reaped.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// cpuTicks returns utime+stime of pid in clock ticks.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatTicks(raw)
}

// parseStatTicks extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may contain spaces and
// parentheses, so the fields are counted from the last ')'.
func parseStatTicks(raw []byte) (int64, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return ut + st, nil
}

// ticksToMs converts clock ticks to milliseconds of CPU time.
func ticksToMs(t int64) float64 { return float64(t) * 1000 / userHZ }

// peakRSSKiB returns VmHWM of pid in KiB.
func peakRSSKiB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("proc status: no VmHWM")
}

// cpuClock is a reading of the machine-wide CPU clock of /proc/stat, in
// ticks summed over all CPUs: time spent running anything (user, nice,
// system, irq, softirq), and steal — time a CPU wanted to run but the
// hypervisor ran another guest.
type cpuClock struct{ busy, steal int64 }

// readCPUClock returns the current cpuClock (zero if /proc/stat is
// unreadable).
func readCPUClock() cpuClock {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}
	}
	c, _ := parseCPUClock(raw)
	return c
}

func parseCPUClock(raw []byte) (cpuClock, error) {
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var v [8]int64
	for i := range v {
		x, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return cpuClock{}, fmt.Errorf("proc stat: field %d: %w", i+1, err)
		}
		v[i] = x
	}
	// user nice system idle iowait irq softirq steal
	return cpuClock{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// delivered is the share of the CPU time wanted between two readings
// that the host delivered: busy / (busy + steal), 1 without steal.
func delivered(from, to cpuClock) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// fleetCPU sums cpuTicks over procs.
func fleetCPU(ps []*proc) (int64, error) {
	var sum int64
	for _, p := range ps {
		t, err := cpuTicks(p.pid())
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// drain discards the rest of a body so the connection can be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

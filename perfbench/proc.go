package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Core layout of the serving workloads: with at least two CPUs and
// taskset present, the generator process runs on CPU 0 and locusd on
// CPU 1, so client cost never folds into server cost. Each process then
// sees one CPU (GOMAXPROCS 1).
const (
	generatorCPU = "0"
	daemonCPU    = "1"
)

// pinning returns the taskset path when the serving processes can be
// pinned to disjoint cores, or "" when they cannot.
func pinning() string {
	if runtime.NumCPU() < 2 {
		return ""
	}
	path, err := exec.LookPath("taskset")
	if err != nil {
		return ""
	}
	return path
}

// pinningDoc describes the core layout for the environment block.
func pinningDoc() string {
	if pinning() == "" {
		return "none (fewer than 2 CPUs or no taskset)"
	}
	return fmt.Sprintf("generator cpu %s, locusd cpu %s", generatorCPU, daemonCPU)
}

// pinned wraps a command line so it runs on the given CPU when pinning
// is available.
func pinned(cpu string, argv ...string) []string {
	if ts := pinning(); ts != "" {
		return append([]string{ts, "-c", cpu}, argv...)
	}
	return argv
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first, so an interrupted run leaves no daemon or generator behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// daemon is one locusd process started by the benchmark.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	log      syncBuf
	done     chan error
	// ready is the time from process start to both listeners answering.
	ready time.Duration
}

// syncBuf is a bytes.Buffer safe to read while the process writes it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts locusd with shipped defaults plus the listeners and
// any extra flags, pinned to the daemon CPU, and waits until it serves.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	binAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{bin, "-addr", httpAddr, "-listen-bin", binAddr}, extra...)
	argv := pinned(daemonCPU, args...)
	d := &daemon{httpAddr: httpAddr, binAddr: binAddr, done: make(chan error, 1)}
	d.cmd = exec.Command(argv[0], argv[1:]...)
	d.cmd.SysProcAttr = dieWithParent()
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start locusd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	d.ready = time.Since(start)
	return d, nil
}

// waitReady polls the health endpoint, then the binary listener.
func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("locusd exited before serving: %v\n%s", err, d.log.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("locusd not ready after %v\n%s", limit, d.log.String())
		}
		resp, err := client.Get("http://" + d.httpAddr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if c, err := net.Dial("tcp", d.binAddr); err == nil {
					return c.Close()
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within the bound is killed and reported.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal locusd: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("locusd exit: %v\n%s", err, d.log.String())
		}
		if !strings.Contains(d.log.String(), "drained cleanly") {
			return fmt.Errorf("locusd did not drain cleanly:\n%s", d.log.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("locusd did not exit within 30s of SIGTERM")
	}
}

// kill stops the daemon without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// getJSON fetches and decodes one JSON document from the daemon.
func (d *daemon) getJSON(path string, doc any) error {
	resp, err := http.Get("http://" + d.httpAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(doc)
}

// circuitsDoc is the slice of GET /v1/circuits the benchmark reads.
type circuitsDoc struct {
	Circuits []circuitInfo `json:"circuits"`
}

type circuitInfo struct {
	Name          string `json:"name"`
	CircuitHeight int64  `json:"baseline_circuit_height"`
	Occupancy     int64  `json:"baseline_occupancy"`
	MutationEpoch uint64 `json:"mutation_epoch"`
	ArraySHA256   string `json:"array_sha256"`
}

// runGeneratorProcess runs this binary as the load generator (pinned to
// the generator CPU) with spec on stdin, and decodes its result.
func runGeneratorProcess(ctx context.Context, spec genSpec) (*genResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	// No load phase runs this long; the bound keeps a wedged server from
	// holding the run past its time limit.
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	argv := pinned(generatorCPU, self)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), generatorEnv+"=1")
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdin = bytes.NewReader(in)
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generator: %v\n%s", err, errOut.String())
	}
	var res genResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("generator output: %w", err)
	}
	return &res, nil
}

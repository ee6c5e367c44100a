// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit, ending with
// one JSON result line:
//
//	perfbench -workload serve-bin|serve-mixed|offline|all -seed N
//	          -seconds S -trace 0|1 -locusd path/to/locusd
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) time calls into each layer's public functions from this
// package's own code and report the per-layer metrics, a per-layer
// table (self time and share of the end-to-end time) and the tracing
// overhead. README.md in this directory says why each workload exists
// and which metrics each layer should move. perfbench/run.sh builds
// locusd and this program from the checkout and runs them.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"locusroute/internal/experiments"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	locusd   string
	// runDir holds the run's scratch state (store directories).
	runDir string
	// small and fault are set by the self-test only: small shrinks every
	// workload, fault injects failures.
	small bool
	fault faults
}

// faults inject failures so the self-test can show that every check
// can fail the run.
type faults struct {
	paperSHA    string // replaces the expected paper sha256
	seqHash     string // replaces the expected scaled-circuit route hash
	corruptCost bool   // perturbs one sampled serve-bin response cost
}

// Workload names.
const (
	wServeBin   = "serve-bin"
	wServeMixed = "serve-mixed"
	wOffline    = "offline"
)

var workloads = []string{wServeBin, wServeMixed, wOffline}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd lists the end-to-end metrics every untraced run reports.
// Each workload maps its own user-visible numbers onto them; README.md
// gives the mapping.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"success_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"p50_us", "us"},
	{"ops_per_s", "1/s"},
	{"circuit_height", "tracks"},
}

// perLayer lists the per-layer metrics every traced run reports.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"locusd.queue_us", "us"},
		{"locusd.batch_us", "us"},
		{"locusd.batch_size", "count"},
		{"transport.bin_us", "us"},
		{"locusd.inproc_qps", "1/s"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"wire.req_bytes", "B"},
		{"wire.resp_bytes", "B"},
		{"store.mutate_us", "us"},
		{"store.mutate_mem_us", "us"},
		{"store.wal_bytes_per_op", "B"},
		{"locusd.mutate_fanout_us", "us"},
		{"transport.http_us", "us"},
		{"store.recovery_s", "s"},
		{"store.replayed_records", "count"},
		{"route.wire_p50_us", "us"},
		{"route.wire_p99_us", "us"},
		{"route.cells_per_wire", "count"},
		{"route.allocs_per_wire", "count"},
		{"backend.route_seq_s", "s"},
		{"backend.route_part_s", "s"},
		{"part.speedup", "x"},
		{"part.boundary_frac", "ratio"},
		{"part.region_imbalance", "ratio"},
		{"experiments.paper_all_s", "s"},
		{"par.efficiency", "ratio"},
		{"client.lag_us", "us"},
		{"reqtrace.overhead_us", "us"},
	}
	for _, name := range experiments.TableNames() {
		specs = append(specs, metricSpec{"experiments.table_" + name + "_s", "s"})
	}
	return specs
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// namedMetric is one measured value under its own name, with the sample
// count behind it (0 for a single measurement).
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// checkResult is one correctness check; Err is empty when it passed.
type checkResult struct {
	Name string `json:"name"`
	Err  string `json:"error,omitempty"`
}

// report collects one workload run.
type report struct {
	workload  string
	trace     bool
	env       [][2]string
	named     []namedMetric
	values    map[string]float64
	tables    []string
	checks    []checkResult
	attempted int64
	failed    int64
}

func newReport(o *options, workload string) *report {
	return &report{workload: workload, trace: o.trace, values: map[string]float64{}}
}

// layer records a per-layer metric of the result line and lists it.
func (r *report) layer(name string, v float64, unit string, n int) {
	r.values[name] = v
	r.note(name, v, unit, n)
}

// e2e records an end-to-end metric of the result line and lists it
// under the workload's own name for it. The result line takes units
// from the metric lists.
func (r *report) e2e(role, name string, v float64, unit string, n int) {
	r.values[role] = v
	r.note(name, v, unit, n)
}

// common records the end-to-end metrics every workload defines alike.
func (r *report) common(setup float64, setupN, attempted, failed int, rssMB, height float64) {
	r.e2e("setup_s", "setup_s", setup, "s", setupN)
	r.values["success_frac"] = 1 - float64(failed)/float64(attempted)
	r.note("fail_frac", float64(failed)/float64(attempted), "ratio", attempted)
	r.e2e("peak_rss_mb", "peak_rss_mb", rssMB, "MB", 0)
	r.e2e("circuit_height", "circuit_height", height, "tracks", 0)
}

// note lists a measured value that is not itself a result-line metric.
func (r *report) note(name string, v float64, unit string, n int) {
	r.named = append(r.named, namedMetric{Name: name, Value: v, Unit: unit, N: n})
}

// check records a correctness check.
func (r *report) check(name string, err error) {
	c := checkResult{Name: name}
	if err != nil {
		c.Err = err.Error()
	}
	r.checks = append(r.checks, c)
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.Err != "" {
			return false
		}
	}
	return len(r.checks) > 0
}

// count adds operations attempted and failed.
func (r *report) count(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

// result assembles the result line, failing the run if a metric it must
// carry was not measured or is not a finite number.
func (r *report) result() resultLine {
	specs := endToEnd
	if r.trace {
		specs = perLayer()
	}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.Name)
			continue
		}
		out.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	if len(missing) > 0 {
		r.check("every metric emitted", fmt.Errorf("missing or not finite: %s", strings.Join(missing, ", ")))
	}
	if out.Attempted < 1 {
		r.check("work attempted", errors.New("no operation attempted"))
	}
	out.Correct = r.correct()
	return out
}

// print writes the human-readable report, then the result line last.
func (r *report) print(w io.Writer, line resultLine) {
	fmt.Fprintf(w, "== %s (trace=%v)\n", r.workload, r.trace)
	for _, kv := range r.env {
		fmt.Fprintf(w, "env %-14s %s\n", kv[0], kv[1])
	}
	for _, m := range r.named {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "metric %-34s %14.4f %s%s\n", r.workload+"."+m.Name, m.Value, m.Unit, n)
	}
	for _, t := range r.tables {
		fmt.Fprintln(w, t)
	}
	for _, c := range r.checks {
		if c.Err == "" {
			fmt.Fprintf(w, "check %-40s ok\n", c.Name)
		} else {
			fmt.Fprintf(w, "check %-40s FAIL: %s\n", c.Name, c.Err)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", line.Attempted, line.Failed, line.Correct)
	enc, err := json.Marshal(line)
	if err != nil {
		panic(err) // a resultLine of finite floats always encodes
	}
	fmt.Fprintln(w, string(enc))
}

// save writes the run's full record under the build directory.
func (r *report) save(o *options, line resultLine) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload": r.workload, "trace": r.trace, "env": r.env,
		"metrics": r.named, "checks": r.checks, "result": line,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.workload, o.seed, r.trace)
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// generatorEnv, set to 1, makes this binary run as the load generator:
// a genSpec on stdin, a genResult on stdout. The benchmark sets it on
// the generator process it starts.
const generatorEnv = "PERFBENCH_GENERATOR"

func generatorMain() {
	if err := runGenerator(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		os.Exit(1)
	}
}

func main() {
	if os.Getenv(generatorEnv) == "1" {
		generatorMain()
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-bin, serve-mixed, offline or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.root, "root", ".", "repository checkout")
	flag.StringVar(&o.locusd, "locusd", "", "locusd binary (default <root>/.bench_build/bin/locusd)")
	flag.Parse()
	o.trace = trace == 1
	if o.locusd == "" {
		o.locusd = filepath.Join(o.root, ".bench_build", "bin", "locusd")
	}
	list := []string{o.workload}
	if o.workload == "all" {
		list = workloads
	}
	ok := true
	for _, w := range list {
		line, err := runWorkload(&o, w, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w, err)
			os.Exit(2)
		}
		ok = ok && line.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload, prints its report and saves it. An
// error means the run could not measure at all; failed checks come back
// as a result line with Correct false.
func runWorkload(o *options, workload string, w io.Writer) (resultLine, error) {
	known := false
	for _, k := range workloads {
		known = known || k == workload
	}
	if !known {
		return resultLine{}, fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return resultLine{}, err
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return resultLine{}, err
	}
	defer os.RemoveAll(runDir)
	o.runDir = runDir
	r := newReport(o, workload)
	r.env = environment(o, workload)
	ctx := context.Background()
	if o.trace {
		err = traced(ctx, o, r)
	} else {
		switch workload {
		case wServeBin:
			err = serveBin(ctx, o, r)
		case wServeMixed:
			_, err = serveMixed(ctx, o, r)
		case wOffline:
			err = offline(o, r)
		}
	}
	if err != nil {
		return resultLine{}, err
	}
	line := r.result()
	r.print(w, line)
	return line, r.save(o, line)
}

// environment is the block every result carries.
func environment(o *options, workload string) [][2]string {
	return [][2]string{
		{"workload", workload},
		{"seed", fmt.Sprint(o.seed)},
		{"seconds", fmt.Sprint(o.seconds)},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"numcpu", fmt.Sprint(runtime.NumCPU())},
		{"cpu_model", cpuModel()},
		{"go_version", runtime.Version()},
		{"commit", commit(o.root)},
		{"pinning", pinningDoc()},
		{"store_fs", filesystem(filepath.Join(o.root, ".bench_build"))},
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git revision when the checkout
// is a repository, else a sha256 over its Go sources and module files.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// filesystem names the filesystem holding path.
func filesystem(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6a656a63: "fakeowner",
		0x65735546: "fuse", 0x2fc12fc1: "zfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at a small size against a locusd
// built from the enclosing checkout:
//
//	cd perfbench && go test .

var locusdBin string

func TestMain(m *testing.M) {
	if os.Getenv(generatorEnv) == "1" {
		generatorMain()
		return
	}
	dir, err := os.MkdirTemp("", "perfbench-selftest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	locusdBin = filepath.Join(dir, "locusd")
	build := exec.Command("go", "build", "-o", locusdBin, "./cmd/locusd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build locusd: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is the part of BENCHMARK.json the self-test checks.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// run runs one small workload and returns its result line and report.
func run(t *testing.T, workload string, trace bool, f faults) (resultLine, string) {
	t.Helper()
	o := &options{
		workload: workload, seed: 7, seconds: 2, trace: trace,
		root: t.TempDir(), locusd: locusdBin, small: true, fault: f,
	}
	var out bytes.Buffer
	if _, err := runWorkload(o, workload, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return last, out.String()
}

// failed reports whether the output lists the named check as failed.
func failed(out, check string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "check "+check) && strings.Contains(line, "FAIL:") {
			return true
		}
	}
	return false
}

// TestSpecsMatchContract pins the metric lists the program emits to the
// ones BENCHMARK.json declares, units included.
func TestSpecsMatchContract(t *testing.T) {
	c := readContract(t)
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []metricSpec) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(emitted))
		}
		for i := range declared {
			if i < len(emitted) && (declared[i].Name != emitted[i].Name || declared[i].Unit != emitted[i].Unit) {
				t.Errorf("%s[%d]: declared %s %s, emitted %s %s", kind, i,
					declared[i].Name, declared[i].Unit, emitted[i].Name, emitted[i].Unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer())
}

// TestEveryMetricEmitted runs each workload untraced, and one traced,
// and checks that every declared metric is in the result line with its
// unit and every check passes.
func TestEveryMetricEmitted(t *testing.T) {
	c := readContract(t)
	expect := func(t *testing.T, line resultLine, out string, declared []struct{ Name, Unit string }) {
		if !line.Correct {
			t.Errorf("run not correct:\n%s", out)
		}
		for _, m := range declared {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
		}
		if len(line.Metrics) != len(declared) {
			t.Errorf("result line carries %d metrics, want %d", len(line.Metrics), len(declared))
		}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			line, out := run(t, w, false, faults{})
			expect(t, line, out, c.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		line, out := run(t, wServeBin, true, faults{})
		expect(t, line, out, c.PerLayer)
	})
}

// TestChecksCanFail shows that each correctness check fails the run
// when its expectation is wrong or an output is corrupted.
func TestChecksCanFail(t *testing.T) {
	wrong := strings.Repeat("0", 64)
	cases := []struct {
		name     string
		workload string
		fault    faults
		check    string
	}{
		{"route hash", wOffline, faults{seqHash: wrong}, "scaled sequential route hash matches record"},
		{"paper hash", wOffline, faults{paperSHA: wrong}, "paper tables sha256"},
		{"response cost", wServeBin, faults{corruptCost: true}, "serve-bin responses equal route.RouteWire"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, out := run(t, tc.workload, false, tc.fault)
			if line.Correct {
				t.Fatalf("run passed with a wrong expectation:\n%s", out)
			}
			if !failed(out, tc.check) {
				t.Errorf("check %q did not report the failure:\n%s", tc.check, out)
			}
		})
	}
}

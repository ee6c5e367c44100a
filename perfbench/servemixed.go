package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/locusd"
	"locusroute/internal/store"
)

// serve-mixed: closed-loop callers (one per CPU) send durable mutations
// and a fixed share of route reads over /v1 HTTP JSON to a locusd whose
// store persists to a fsynced WAL. The circuits are uploaded at set-up.
const (
	mixCircuits  = 4
	mixReadShare = 0.25
)

// mixInputs generates the run's circuits (half bnrE-like, half MDC-like)
// and, per circuit, the pin lists its added wires draw from: the wires
// of a sibling circuit of the same shape. The circuits use fixed
// generator seeds; the workload seed drives the operation stream.
// Circuit height varies by about 10% across generator seeds, which
// would swamp the timing signal if the circuits changed with the seed.
func mixInputs() ([]*circuit.Circuit, [][][][2]int, error) {
	var circs []*circuit.Circuit
	var donors [][][][2]int
	for i := 0; i < mixCircuits; i++ {
		gen := circuit.BnrELike
		if i >= mixCircuits/2 {
			gen = circuit.MDCLike
		}
		c, err := circuit.Generate(gen(2 + int64(i)))
		if err != nil {
			return nil, nil, err
		}
		c.Name = fmt.Sprintf("mix%d", i)
		d, err := circuit.Generate(gen(12 + int64(i)))
		if err != nil {
			return nil, nil, err
		}
		var pins [][][2]int
		for _, w := range d.Wires {
			pins = append(pins, pinPairs(w.Pins))
		}
		circs = append(circs, c)
		donors = append(donors, pins)
	}
	return circs, donors, nil
}

// uploadDoc is the POST /v1/circuits/{name} body.
type uploadDoc struct {
	Channels int          `json:"channels"`
	Grids    int          `json:"grids"`
	Wires    []uploadWDoc `json:"wires"`
}

type uploadWDoc struct {
	ID   int      `json:"id"`
	Pins [][2]int `json:"pins"`
}

// upload posts every circuit and returns the summed baseline circuit
// height the daemon reports.
func upload(d *daemon, circs []*circuit.Circuit) (int64, error) {
	var height int64
	for _, c := range circs {
		doc := uploadDoc{Channels: c.Grid.Channels, Grids: c.Grid.Grids}
		for _, w := range c.Wires {
			doc.Wires = append(doc.Wires, uploadWDoc{ID: w.ID, Pins: pinPairs(w.Pins)})
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post("http://"+d.httpAddr+"/v1/circuits/"+c.Name, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		var info circuitInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			return 0, fmt.Errorf("upload %s: %s (%v)", c.Name, resp.Status, err)
		}
		height += info.CircuitHeight
	}
	return height, nil
}

// bootStore starts a daemon on a fresh store directory and uploads the
// circuits; the returned duration is boot plus uploads.
func bootStore(o *options, dir string, circs []*circuit.Circuit) (*daemon, time.Duration, int64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	d, err := startDaemon(o.locusd, "-store-dir", dir)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	height, err := upload(d, circs)
	if err != nil {
		d.kill()
		return nil, 0, 0, err
	}
	return d, d.ready + time.Since(t0), height, nil
}

// circuitState reads array hash and mutation epoch per uploaded circuit.
func circuitState(d *daemon, circs []*circuit.Circuit) (map[string]circuitInfo, error) {
	var doc circuitsDoc
	if err := d.getJSON("/v1/circuits", &doc); err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, c := range circs {
		want[c.Name] = true
	}
	out := map[string]circuitInfo{}
	for _, ci := range doc.Circuits {
		if want[ci.Name] {
			out[ci.Name] = ci
		}
	}
	if len(out) != len(circs) {
		return nil, fmt.Errorf("daemon serves %d of %d uploaded circuits", len(out), len(circs))
	}
	return out, nil
}

// serveMixed runs the serve-mixed workload. A traced run also copies
// the store directory after the load drains (before shutdown), for the
// recovery probe, and gets the copy's path back.
func serveMixed(ctx context.Context, o *options, r *report) (string, error) {
	circs, donors, err := mixInputs()
	if err != nil {
		return "", err
	}
	var height int64
	dir := ""
	d, setup, err := bootMedian(func(k int) (*daemon, time.Duration, error) {
		dir = filepath.Join(o.runDir, fmt.Sprintf("store-%d", k))
		d, ready, h, err := bootStore(o, dir, circs)
		height = h
		return d, ready, err
	})
	if err != nil {
		return "", err
	}
	names, wires := genInputs(circs)
	loadSecs := 0.85 * o.seconds
	spec := genSpec{
		Mode: "http-mixed", Addr: d.httpAddr, Seed: o.seed, Conns: conns(),
		Circuits: names, Wires: wires, Donors: donors,
		Seconds: loadSecs, ReadShare: mixReadShare,
	}
	res, genErr := runGeneratorProcess(ctx, spec)
	if genErr != nil {
		d.kill()
		return "", genErr
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		d.kill()
		return "", err
	}
	before, err := circuitState(d, circs)
	if err != nil {
		d.kill()
		return "", err
	}
	var epochs, acked uint64
	perCircuit := error(nil)
	for i, c := range circs {
		epochs += before[c.Name].MutationEpoch
		acked += uint64(res.Acked[i])
		if before[c.Name].MutationEpoch != uint64(res.Acked[i]) && perCircuit == nil {
			perCircuit = fmt.Errorf("%s: epoch %d, acknowledged ops %d", c.Name, before[c.Name].MutationEpoch, res.Acked[i])
		}
	}
	if epochs != acked {
		perCircuit = fmt.Errorf("summed epochs %d != acknowledged ops %d (%v)", epochs, acked, perCircuit)
	}
	r.check("mutation epochs equal acknowledged ops", perCircuit)
	storeCopy := ""
	if o.trace {
		storeCopy = filepath.Join(o.runDir, "store-copy")
		if err := copyDir(dir, storeCopy); err != nil {
			d.kill()
			return "", err
		}
	}
	r.check("locusd drained cleanly", d.stop())
	r.check("restart serves the same arrays and epochs", restartMatches(o, dir, circs, before))

	mut, read := res.Mutations, res.Reads
	failed := res.MixedFails.total()
	attempted := mut.N + read.N + failed
	r.count(attempted, failed)
	if mut.N == 0 || read.N == 0 {
		return "", errors.New("serve-mixed completed no mutations or no reads")
	}
	opsPerS := float64(mut.N) / res.ElapsedSec
	r.common(setup, boots, attempted, failed, rss, float64(height))
	r.e2e("p50_us", "mutate_p50_us", mut.P50Us, "us", mut.N)
	r.note("mutate_p90_us", mut.P90Us, "us", mut.N)
	r.note("mutate_p99_us", mut.P99Us, "us", mut.N)
	r.e2e("ops_per_s", "mutate_ops_s", opsPerS, "1/s", mut.N)
	r.note("route_p50_us", read.P50Us, "us", read.N)
	r.note("route_p99_us", read.P99Us, "us", read.N)
	return storeCopy, nil
}

// restartMatches restarts locusd on the run's store directory and
// compares what it serves with the state before shutdown.
func restartMatches(o *options, dir string, circs []*circuit.Circuit, before map[string]circuitInfo) error {
	d, err := startDaemon(o.locusd, "-store-dir", dir)
	if err != nil {
		return err
	}
	after, err := circuitState(d, circs)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	for name, b := range before {
		a := after[name]
		if a.ArraySHA256 != b.ArraySHA256 || a.MutationEpoch != b.MutationEpoch || b.ArraySHA256 == "" {
			return fmt.Errorf("%s: before %s@%d, after restart %s@%d",
				name, b.ArraySHA256, b.MutationEpoch, a.ArraySHA256, a.MutationEpoch)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// mixOps draws n single-op mutations of circuit c with the generator's
// own op mix, for the in-process store probes.
func mixOps(seed int64, c *circuit.Circuit, donors [][][2]int, n int) []store.Op {
	names, wires := genInputs([]*circuit.Circuit{c})
	spec := &genSpec{Circuits: names, Wires: wires, Donors: [][][][2]int{donors}}
	m := &mixCaller{rng: rand.New(rand.NewSource(seed)), owned: []int{0}, added: map[int][]int{}}
	kinds := map[string]store.OpKind{"add": store.OpAdd, "remove": store.OpRemove, "reroute": store.OpReroute}
	out := make([]store.Op, n)
	for i := range out {
		_, _, op := m.nextOp(spec, [][]genWire{wires})
		m.ack(0, op)
		out[i] = store.Op{Kind: kinds[op.Op], WireID: op.Wire, Pins: points(op.Pins)}
	}
	return out
}

// mixedLayers is the serve-mixed part of a traced run: the store write
// path fsynced and in memory, locusd's fan-out on top of it, the HTTP
// transport on top of that, and recovery of a store directory.
// recoverDir is a copy of a loaded run's store directory ("" makes the
// probe recover its own).
func mixedLayers(ctx context.Context, o *options, r *report, recoverDir string, nOps int) error {
	all, allDonors, err := mixInputs()
	if err != nil {
		return err
	}
	c, donors := all[0], allDonors[0]
	ops := mixOps(o.seed, c, donors, nOps)
	layer := r.layer

	// The same ops go, interleaved one by one, through locusd.Server.Mutate
	// on a served circuit, straight into store.Store.Mutate on a copy of
	// that circuit in the same fsynced store, and into an in-memory store,
	// so all three see the same fsync conditions and the same work.
	dir := filepath.Join(o.runDir, "probe-store")
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv, err := locusd.New(locusd.Config{Store: st})
	if err != nil {
		st.Close()
		return err
	}
	mem, err := store.Open(store.Config{})
	if err != nil {
		return err
	}
	direct := *c
	direct.Name = "direct-" + c.Name
	var serverLat, durLat, memLat dist
	var walBytes int64
	err = func() error {
		defer st.Close()
		defer srv.Close()
		defer mem.Close()
		if _, err := srv.UploadCircuit(c); err != nil {
			return err
		}
		if _, err := st.Upload(&direct); err != nil {
			return err
		}
		if _, err := mem.Upload(c); err != nil {
			return err
		}
		walBefore := fileSize(filepath.Join(dir, "wal.bin"))
		for _, op := range ops {
			one := []store.Op{op}
			t0 := time.Now()
			if _, err := srv.Mutate(locusd.MutateRequest{Circuit: c.Name, Ops: one}); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := st.Mutate(direct.Name, one); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := mem.Mutate(c.Name, one); err != nil {
				return err
			}
			serverLat = append(serverLat, us(t1.Sub(t0)))
			durLat = append(durLat, us(t2.Sub(t1)))
			memLat = append(memLat, us(time.Since(t2)))
		}
		walBytes = fileSize(filepath.Join(dir, "wal.bin")) - walBefore
		return nil
	}()
	if err != nil {
		return err
	}
	r.count(3*len(ops), 0)
	dur := durLat.median()
	fanout := serverLat.median() - dur
	layer("store.mutate_us", dur, "us", len(durLat))
	layer("store.mutate_mem_us", memLat.median(), "us", len(memLat))
	layer("store.wal_bytes_per_op", float64(walBytes)/float64(2*len(ops)), "B", 2*len(ops))
	layer("locusd.mutate_fanout_us", fanout, "us", len(serverLat))

	// The HTTP transport: one serial caller against a durable daemon.
	httpDir := filepath.Join(o.runDir, "probe-http")
	d, _, _, err := bootStore(o, httpDir, []*circuit.Circuit{c})
	if err != nil {
		return err
	}
	names, wires := genInputs([]*circuit.Circuit{c})
	res, genErr := runGeneratorProcess(ctx, genSpec{
		Mode: "http-mixed", Addr: d.httpAddr, Seed: o.seed, Conns: 1,
		Circuits: names, Wires: wires, Donors: [][][][2]int{donors}, MaxOps: len(ops),
	})
	if genErr == nil && recoverDir == "" {
		recoverDir = filepath.Join(o.runDir, "probe-http-copy")
		genErr = copyDir(httpDir, recoverDir)
	}
	r.check("locusd drained cleanly (http probe)", d.stop())
	if genErr != nil {
		return genErr
	}
	r.count(res.Mutations.N+res.MixedFails.total(), res.MixedFails.total())
	httpUs := res.Mutations.P50Us - serverLat.median()
	layer("transport.http_us", httpUs, "us", res.Mutations.N)

	// Recovery: reopen a store directory that was never snapshotted.
	t0 := time.Now()
	rec, err := store.Open(store.Config{Dir: recoverDir})
	if err != nil {
		return err
	}
	recovery := time.Since(t0)
	stats := rec.Recovery()
	if err := rec.Close(); err != nil {
		return err
	}
	layer("store.recovery_s", secs(recovery), "s", 1)
	layer("store.replayed_records", float64(stats.ReplayedRecords), "count", 1)

	rows := []layerRow{
		{"transport.http (client - Server.Mutate)", httpUs},
		{"locusd.mutate_fanout (Server.Mutate - Store.Mutate)", fanout},
		{"store.wal+fsync (fsynced - in-memory Mutate)", dur - memLat.median()},
		{"store.apply (in-memory Mutate)", memLat.median()},
	}
	r.tables = append(r.tables, layerTable(
		fmt.Sprintf("serve-mixed per-layer self time of one durable mutation (serial probes, medians, n=%d)", len(ops)),
		res.Mutations.P50Us, "us", rows,
		"tracing overhead: none in the program; layers are timed at their public calls"))
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

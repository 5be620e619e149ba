//go:build e2e && linux

// The end-to-end suite: what only a running process shows. Handlers,
// merges, pushes and metrics are pinned in-process by the tests of
// internal/server and internal/cluster; this suite boots real usimd
// processes to check the flag wiring and start-up refusals, the
// separate pprof listener, SIGTERM draining a subscription stream, the
// offline index tools against a node, and a coordinator over node
// processes, one of them killed. It also makes the few wire checks no
// in-process test makes: a request's own delta echoed, a debug answer
// equal to the plain one plus its profile, the per-shard client
// counters, and an update round trip. Run it with `make e2e`.

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"

	"usimrank"
)

const (
	// vertices is the size of the RMAT graph every test serves
	// (usim-gen -scale 6).
	vertices = 64
	// drainBound bounds SIGTERM's drain: a stream left undrained holds
	// the listener until serve's 15 s Shutdown timeout.
	drainBound = 10 * time.Second
)

// binDir holds the binaries TestMain builds and the graph g.ug.
var binDir string

// client bounds every request but the subscription stream.
var client = &http.Client{Timeout: time.Minute}

// TestMain builds the binaries once for every test and run count. It
// builds next to the test binary: under `go test` that is the go
// command's work directory, which the go command removes even when
// this binary is killed, so an aborted run leaves no binaries behind.
// TMPDIR points there too, so the directories of t.TempDir, whose
// cleanup a killed binary never runs, go with it.
func TestMain(m *testing.M) {
	exe, err := os.Executable()
	if err == nil {
		binDir, err = os.MkdirTemp(filepath.Dir(exe), "e2e-")
	}
	if err == nil {
		err = build()
	}
	if err == nil {
		err = os.Setenv("TMPDIR", binDir)
	}
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(binDir)
	os.Exit(code)
}

// build compiles usimd, usim-index and usim-gen into binDir,
// race-instrumented when this test binary is, and generates g.ug.
func build() error {
	goBuild := []string{"go", "build", "-o", binDir}
	if raceBuilt() {
		goBuild = append(goBuild, "-race")
	}
	for _, argv := range [][]string{
		append(goBuild, "usimrank/cmd/usimd", "usimrank/cmd/usim-index", "usimrank/cmd/usim-gen"),
		{path("usim-gen"), "-kind", "rmat", "-scale", "6", "-edges", "512", "-out", path("g.ug")},
	} {
		if out, err := exec.Command(argv[0], argv[1:]...).CombinedOutput(); err != nil {
			return fmt.Errorf("%s: %v\n%s", strings.Join(argv, " "), err, out)
		}
	}
	return nil
}

// raceBuilt reports whether this test binary was built with -race.
func raceBuilt() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

func path(name string) string { return filepath.Join(binDir, name) }

// freeAddr asks the kernel for an unused loopback address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// command runs one of the built binaries. The child is killed if the
// test binary dies (Pdeathsig), so no process outlives an aborted run.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, path(name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run runs a built binary to its exit (killed after a minute) and
// returns its exit status and combined output.
func run(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := command(ctx, name, args...)
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// daemon is one usimd process serving on a free loopback port.
type daemon struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process is reaped
}

// start boots usimd with args, waits for /healthz, and kills the
// process in t.Cleanup unless the test has stopped it.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	logPath := filepath.Join(t.TempDir(), "usimd.log")
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{url: "http://" + addr, exited: make(chan struct{})}
	d.cmd = command(context.Background(), "usimd", append(args, "-addr", addr, "-log-every", "0")...)
	d.cmd.Stdout, d.cmd.Stderr = lf, lf
	if err := d.cmd.Start(); err != nil {
		lf.Close()
		t.Fatal(err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		lf.Close()
		close(d.exited)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails only if already gone
		<-d.exited
		if t.Failed() {
			b, _ := os.ReadFile(logPath)
			t.Logf("usimd %s:\n%s", strings.Join(args, " "), b)
		}
	})
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(20 * time.Millisecond) {
		select {
		case <-d.exited:
			t.Fatalf("usimd exited during start-up with status %d", d.cmd.ProcessState.ExitCode())
		default:
		}
		if resp, err := client.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("usimd not healthy after a minute")
		}
	}
}

// call POSTs body to url (GETs it when body is empty) and returns the
// status and the response body.
func call(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// ok is call for a request that must answer 200; it decodes the body
// into v when v is not nil.
func ok(t *testing.T, url, body string, v any) []byte {
	t.Helper()
	status, b := call(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", url, body, status, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v: %s", url, err, b)
		}
	}
	return b
}

// firstArc returns the first arc of g.ug, its probability as written.
func firstArc(t *testing.T) (u, v int, p string) {
	t.Helper()
	f, err := os.ReadFile(path("g.ug"))
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 is the header.
	if _, err := fmt.Sscan(strings.SplitN(string(f), "\n", 3)[1], &u, &v, &p); err != nil {
		t.Fatal(err)
	}
	return u, v, p
}

// TestStartupRefusals: a configuration usimd would not honour exits 2
// with a message before anything is served.
func TestStartupRefusals(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0") // an address pprof cannot bind
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	graph, fleet := path("g.ug"), "shard0=http://127.0.0.1:1"
	for _, c := range []struct {
		name, msg string
		args      []string
	}{
		{"no mode", "exactly one of -graph (node mode) or -cluster (coordinator mode)", nil},
		{"both modes", "exactly one of -graph (node mode) or -cluster (coordinator mode)", []string{"-graph", graph, "-cluster", fleet}},
		{"node flag under -cluster", "-seed is a node-mode flag", []string{"-cluster", fleet, "-seed", "3"}},
		{"coordinator flag under -graph", "-replicas is a coordinator-mode flag", []string{"-graph", graph, "-replicas", fleet}},
		{"-l 0", "-l 0 outside [1,5]", []string{"-graph", graph, "-l", "0"}},
		{"unusable -pprof-addr", "pprof listener", []string{"-graph", graph, "-pprof-addr", held.Addr().String()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out := run(t, "usimd", append(c.args, "-addr", freeAddr(t), "-log-every", "0")...)
			if code != 2 || !strings.Contains(out, c.msg) {
				t.Fatalf("exit status %d, want 2 with %q:\n%s", code, c.msg, out)
			}
		})
	}
}

// TestNode boots a node with every engine flag off its default: its
// scores must equal an in-process engine's with those options bit for
// bit, pprof must answer on its own listener only, and SIGTERM must end
// an open subscription stream with a shutdown event, then exit 0 (a
// race-built binary exits 66 on a detected race).
func TestNode(t *testing.T) {
	pprofAddr := freeAddr(t)
	d := start(t, "-graph", path("g.ug"), "-pprof-addr", pprofAddr,
		"-c", "0.7", "-n", "4", "-N", "512", "-l", "2", "-seed", "9")

	if b := ok(t, "http://"+pprofAddr+"/debug/pprof/goroutine?debug=1", "", nil); !bytes.Contains(b, []byte("goroutine")) {
		t.Fatalf("pprof goroutine profile: %.200s", b)
	}
	if status, _ := call(t, d.url+"/debug/pprof/", ""); status != http.StatusNotFound {
		t.Fatalf("serving address /debug/pprof/: status %d, want 404", status)
	}

	g, err := usimrank.LoadGraphFile(path("g.ug"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := usimrank.New(g, usimrank.Options{C: 0.7, Steps: 4, N: 512, L: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, alg := range map[string]usimrank.Algorithm{"twophase": usimrank.AlgTwoPhase, "srsp": usimrank.AlgSRSP} {
		want, err := e.Compute(alg, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Score float64 }
		ok(t, d.url+"/v1/score", fmt.Sprintf(`{"alg":%q,"u":1,"v":2}`, name), &got)
		if got.Score != want || want == 0 {
			t.Errorf("%s s(1,2): usimd %v, in-process engine %v", name, got.Score, want)
		}
	}

	var src struct {
		Scores   []float64
		Adaptive struct{ Delta float64 }
	}
	ok(t, d.url+"/v1/source", `{"alg":"sampling","u":3,"eps":0.05,"delta":0.01}`, &src)
	if src.Adaptive.Delta != 0.01 || len(src.Scores) != vertices {
		t.Errorf("adaptive source: delta %v, %d scores; want the request's 0.01 and %d", src.Adaptive.Delta, len(src.Scores), vertices)
	}

	resp, err := http.Get(d.url + "/v1/subscribe?shape=score&alg=sampling&u=1&v=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Sized to the two events this stream can carry (snapshot and
	// shutdown), so the reader never blocks once the test stops reading.
	events := make(chan string, 2)
	go func() {
		defer close(events)
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if ev, found := strings.CutPrefix(sc.Text(), "event: "); found {
				events <- ev
			}
		}
	}()
	expect := func(want string) {
		t.Helper()
		select {
		case ev := <-events:
			if ev != want {
				t.Fatalf("stream event %q, want %q", ev, want)
			}
		case <-time.After(drainBound):
			t.Fatalf("no %q event within %v", want, drainBound)
		}
	}
	expect("snapshot")
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	expect("shutdown")
	select {
	case <-d.exited:
		if code := d.cmd.ProcessState.ExitCode(); code != 0 {
			t.Fatalf("usimd exited %d after SIGTERM, want 0", code)
		}
	case <-time.After(drainBound):
		t.Fatalf("usimd still running %v after SIGTERM", drainBound)
	}
}

// TestIndexLifecycle drives usim-index and a node serving its file:
// inspect, the boot-time rejection of a file from another generation,
// and the resident index patched by an admin update.
func TestIndexLifecycle(t *testing.T) {
	dir := t.TempDir()
	g1, g2 := filepath.Join(dir, "g1.usix"), filepath.Join(dir, "g2.usix")
	u, v, _ := firstArc(t)
	update := fmt.Sprintf("reweight:%d,%d,0.123", u, v)
	for file, args := range map[string][]string{g1: nil, g2: {"-update", update}} {
		if code, out := run(t, "usim-index", append([]string{"-graph", path("g.ug"), "-out", file}, args...)...); code != 0 {
			t.Fatalf("usim-index %s: exit status %d:\n%s", args, code, out)
		}
	}
	for file, gen := range map[string]int{g1: 1, g2: 2} {
		_, out := run(t, "usim-index", "-inspect", file)
		for _, want := range []string{fmt.Sprintf("generation  %d\n", gen), fmt.Sprintf("vertices    %d\n", vertices)} {
			if !strings.Contains(out, want) {
				t.Fatalf("usim-index -inspect %s lacks %q:\n%s", filepath.Base(file), want, out)
			}
		}
	}
	code, out := run(t, "usimd", "-graph", path("g.ug"), "-index", g2, "-addr", freeAddr(t), "-log-every", "0")
	if code != 1 || !strings.Contains(out, "index rejected") {
		t.Fatalf("usimd -index of generation 2: exit status %d, want 1 with \"index rejected\":\n%s", code, out)
	}

	d := start(t, "-graph", path("g.ug"), "-index", g1)
	var src struct {
		Alg    string
		Scores []float64
	}
	ok(t, d.url+"/v1/source", `{"alg":"indexed","u":3,"candidates":[0,1,2,3,4,5,6,7]}`, &src)
	if src.Alg != "indexed" || len(src.Scores) != 8 {
		t.Fatalf("indexed source: alg %q, %d scores", src.Alg, len(src.Scores))
	}
	ok(t, d.url+"/v1/admin/update", fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.123}]}`, u, v), nil)
	var st struct {
		Index struct {
			Generation  int
			RowsPatched int `json:"rows_patched"`
		}
	}
	ok(t, d.url+"/v1/stats", "", &st)
	if st.Index.Generation != 2 || st.Index.RowsPatched < 1 {
		t.Fatalf("index after the update: %+v, want generation 2 with rows patched", st.Index)
	}
}

// TestCluster boots a coordinator over two node processes: a relayed
// (score) and a merged (pairs top-k) answer must be byte-equal to a
// node's own, a debug answer must be the plain one plus its profile,
// the per-shard client counters must be exposed, an update and its
// inverse must bring a score back bit for bit, and once a node is
// SIGKILLed a query it owns must answer 502 naming it.
func TestCluster(t *testing.T) {
	nodes := []*daemon{start(t, "-graph", path("g.ug")), start(t, "-graph", path("g.ug"))}
	co := start(t, "-cluster", "shard0="+nodes[0].url+",shard1="+nodes[1].url)
	for _, q := range [][2]string{
		{"/v1/score", `{"alg":"srsp","u":3,"v":17}`},
		{"/v1/topk", `{"alg":"sampling","k":7}`},
	} {
		if node, merged := ok(t, nodes[0].url+q[0], q[1], nil), ok(t, co.url+q[0], q[1], nil); !bytes.Equal(node, merged) {
			t.Fatalf("%s %s:\nnode        %s\ncoordinator %s", q[0], q[1], node, merged)
		}
	}
	for _, url := range []string{nodes[0].url, co.url} {
		var plain, debug map[string]any
		ok(t, url+"/v1/topk", `{"alg":"sampling","k":5}`, &plain)
		ok(t, url+"/v1/topk", `{"alg":"sampling","k":5,"debug":true}`, &debug)
		delete(debug, "profile")
		if !reflect.DeepEqual(plain, debug) {
			t.Fatalf("%s: debug answer %v differs from plain %v beyond its profile", url, debug, plain)
		}
	}

	if b := ok(t, co.url+"/metrics", "", nil); !bytes.Contains(b, []byte("\nusimrank_client_hedges_total{shard=\"shard0\"} ")) {
		t.Fatal("coordinator /metrics has no usimrank_client_hedges_total sample for shard0")
	}

	u, v, p := firstArc(t)
	before := ok(t, co.url+"/v1/score", `{"alg":"srsp","u":1,"v":2}`, nil)
	for _, np := range []string{"0.123", p} {
		ok(t, co.url+"/v1/admin/update", fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":%s}]}`, u, v, np), nil)
	}
	if after := ok(t, co.url+"/v1/score", `{"alg":"srsp","u":1,"v":2}`, nil); !bytes.Equal(before, after) {
		t.Fatalf("score after an update and its inverse: %s, before: %s", after, before)
	}

	if err := nodes[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-nodes[1].exited
	for u := 0; u < vertices; u++ {
		status, b := call(t, co.url+"/v1/score", fmt.Sprintf(`{"alg":"srsp","u":%d,"v":1}`, u))
		if status == http.StatusOK {
			continue
		}
		var e struct{ Error struct{ Code, Shard string } }
		if status != http.StatusBadGateway || json.Unmarshal(b, &e) != nil || e.Error.Code != "shard_unavailable" || e.Error.Shard != "shard1" {
			t.Fatalf("score u=%d after shard1 died: status %d: %s", u, status, b)
		}
		return
	}
	t.Fatal("no source answered 502 after shard1 died")
}

package e2e

// harness_test.go holds the fleet plumbing: TestMain builds the real
// unidetectd binary once and trains one shared model file; daemons
// are exec'd with ephemeral ports (-addr 127.0.0.1:0 -addr-file) and
// attached through testkit.Daemon for readiness and metrics; a
// rendezvous-hash router pins each tenant to a daemon and rebalances
// only the dead daemon's tenants after a kill. Daemon logs ship as
// failure artifacts next to the chaos transcripts.

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/testkit"
)

var (
	workDir   string // scratch root shared by every test in the run
	binPath   string // the built unidetectd binary
	modelPath string // one trained model, shared by every daemon
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "unidetect-e2e-*")
		if err != nil {
			log.Print(err)
			return 1
		}
		defer os.RemoveAll(dir)
		workDir = dir

		// Build the daemon exactly as a release would: the real main
		// package, no test scaffolding linked in.
		binPath = filepath.Join(dir, "unidetectd")
		build := exec.Command("go", "build", "-o", binPath, "github.com/unidetect/unidetect/cmd/unidetectd")
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			log.Printf("e2e: build unidetectd: %v\n%s", err, out)
			return 1
		}

		// One model file shared by the fleet: every daemon loads the same
		// bytes, so cross-daemon findings are comparable.
		model, err := unidetect.Train(context.Background(),
			unidetect.SyntheticCorpus(unidetect.WebProfile, 900, 11), nil)
		if err != nil {
			log.Printf("e2e: train shared model: %v", err)
			return 1
		}
		modelPath = filepath.Join(dir, "model.bin")
		f, err := os.Create(modelPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := model.Save(f); err != nil {
			log.Printf("e2e: save shared model: %v", err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		return m.Run()
	}())
}

// scratchName flattens a (sub)test name into a path component for the
// shared scratch dir — subtest names carry slashes.
func scratchName(t *testing.T) string {
	return strings.ReplaceAll(t.Name(), "/", "_")
}

// daemon is one exec'd unidetectd plus its harness attachment.
type daemon struct {
	*testkit.Daemon
	name    string
	args    []string
	cmd     *exec.Cmd
	logPath string
	addr    string
	jobsDir string
	alive   bool
}

// startDaemon execs the binary with an ephemeral port and waits for
// readiness. Extra args ride after the harness-owned flags. The
// daemon's log ships as a failure artifact; still-running daemons are
// SIGKILLed when the test ends.
func startDaemon(t *testing.T, name string, extra ...string) *daemon {
	t.Helper()
	d := &daemon{
		name:    name,
		logPath: filepath.Join(workDir, scratchName(t)+"-"+name+".log"),
		jobsDir: filepath.Join(workDir, scratchName(t)+"-"+name+"-jobs"),
		args:    extra,
	}
	d.spawn(t)
	t.Cleanup(func() {
		if t.Failed() {
			logData, err := os.ReadFile(d.logPath)
			if err != nil {
				logData = []byte(err.Error())
			}
			testkit.Artifact(t, name+".log", string(logData))
		}
		if d.alive {
			d.kill(t)
		}
	})
	return d
}

// spawn (re)launches the daemon process with the same identity — the
// restart path of the kill-one-daemon drills reuses the jobs dir and
// log so resumed work lands in the same places.
func (d *daemon) spawn(t *testing.T) {
	t.Helper()
	addrFile := filepath.Join(workDir, fmt.Sprintf("%s-%s-%d.addr", scratchName(t), d.name, time.Now().UnixNano()))
	args := []string{
		"-model", modelPath,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-jobs-dir", d.jobsDir,
	}
	args = append(args, d.args...)
	logF, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = logF
	cmd.Stderr = logF
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", d.name, err)
	}
	_ = logF.Close() // the child holds its own descriptor now

	// The daemon writes its bound address atomically once listening.
	deadline := time.Now().Add(30 * time.Second)
	var addr string
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("%s never wrote %s", d.name, addrFile)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.cmd = cmd
	d.addr = addr
	d.alive = true
	d.Daemon = testkit.AttachDaemon(t, "http://"+addr, 30*time.Second)
}

// kill SIGKILLs the daemon — no drain, nothing flushed beyond what is
// already durable. This is the crash the restart contract is written
// against.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	d.alive = false
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill %s: %v", d.name, err)
	}
	_, _ = d.cmd.Process.Wait()
}

// stop drains the daemon gracefully (SIGTERM) and waits for exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.alive = false
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("stop %s: %v", d.name, err)
	}
	_, _ = d.cmd.Process.Wait()
}

// router is a rendezvous-hash (highest-random-weight) router: each
// key scores every alive daemon and picks the max, so killing one
// daemon remaps only that daemon's keys — the consistent-hashing
// property the fleet needs for per-daemon job affinity.
type router struct {
	daemons []*daemon
}

func (r *router) pick(key string) *daemon {
	var best *daemon
	var bestScore uint64
	for _, d := range r.daemons {
		if !d.alive {
			continue
		}
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(d.name))
		if score := h.Sum64(); best == nil || score > bestScore {
			best, bestScore = d, score
		}
	}
	return best
}

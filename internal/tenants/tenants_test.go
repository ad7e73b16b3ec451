package tenants

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleTenants() []Tenant {
	return []Tenant{
		{ID: "acme", KeyHash: HashKey("acme-key"), RatePerSec: 10, Burst: 5, MaxBody: 1 << 20},
		{ID: "globex", KeyHash: HashKey("globex-key"), MaxBody: 4 << 20},
		{ID: "initech", KeyHash: HashKey("initech-key"), RatePerSec: 0.5, Burst: 2},
	}
}

// fakeClock is a hand-advanced quota clock.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func TestRoundTrip(t *testing.T) {
	want := sampleTenants()
	path := filepath.Join(t.TempDir(), "tenants.reg")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Tenants()
	if len(got) != len(want) {
		t.Fatalf("got %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestAuthenticate(t *testing.T) {
	r, err := New(sampleTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := r.Authenticate("acme-key")
	if !ok || g.Tenant.ID != "acme" {
		t.Fatalf("acme key resolved to %+v ok=%v", g.Tenant, ok)
	}
	if _, ok := r.Authenticate("acme-key-but-wrong"); ok {
		t.Fatal("wrong key authenticated")
	}
	if _, ok := r.Authenticate(""); ok {
		t.Fatal("empty key authenticated")
	}
	if _, ok := r.Lookup("globex"); !ok {
		t.Fatal("lookup by id failed")
	}
}

func TestQuotaBucket(t *testing.T) {
	clk := &fakeClock{}
	r, err := New(sampleTenants(), clk.now)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := r.Authenticate("acme-key") // burst 5, 10/s
	for i := 0; i < 5; i++ {
		if ok, _ := g.Allow(); !ok {
			t.Fatalf("request %d inside burst rejected", i)
		}
	}
	ok, retry := g.Allow()
	if ok {
		t.Fatal("6th back-to-back request allowed past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s] at 10 tokens/s", retry)
	}
	// One refill interval later the bucket has exactly one token.
	clk.at += 100 * time.Millisecond
	if ok, _ := g.Allow(); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := g.Allow(); ok {
		t.Fatal("second request after a single-token refill allowed")
	}

	// Unthrottled tenant always passes.
	g2, _ := r.Authenticate("globex-key")
	for i := 0; i < 100; i++ {
		if ok, _ := g2.Allow(); !ok {
			t.Fatal("unthrottled tenant rejected")
		}
	}
}

func TestReloadPreservesBucketLevels(t *testing.T) {
	clk := &fakeClock{}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.reg")
	ts := sampleTenants()
	if err := WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := r.Authenticate("acme-key")
	for i := 0; i < 5; i++ {
		g.Allow() // drain acme's burst
	}

	// Rewrite the registry with acme's quota unchanged but globex
	// gaining one: acme's bucket must stay drained across the reload.
	ts[1].RatePerSec, ts[1].Burst = 1, 1
	if err := WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(path); err != nil {
		t.Fatal(err)
	}
	g, _ = r.Authenticate("acme-key")
	if ok, _ := g.Allow(); ok {
		t.Fatal("reload refilled an unchanged tenant's bucket")
	}
	g2, _ := r.Authenticate("globex-key")
	if ok, _ := g2.Allow(); !ok {
		t.Fatal("newly throttled tenant's bucket did not start full")
	}

	// Changing the quota shape resets the bucket to full.
	ts[0].Burst = 3
	if err := WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(path); err != nil {
		t.Fatal(err)
	}
	g, _ = r.Authenticate("acme-key")
	if ok, _ := g.Allow(); !ok {
		t.Fatal("resized bucket did not reset to full")
	}
}

func TestReloadKeepsOldSnapshotOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.reg")
	if err := WriteFile(path, sampleTenants()); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(path); err == nil {
		t.Fatal("reload of a corrupt file did not error")
	}
	if _, ok := r.Authenticate("acme-key"); !ok {
		t.Fatal("failed reload clobbered the live snapshot")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	var good bytes.Buffer
	if err := writeTenants(&good, sampleTenants()); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("UNIDETECT-NOPE\x01xxxx"),
		"magic only":    []byte("UNIDETECT-TNTS\x01"),
		"torn tail":     good.Bytes()[:good.Len()-3],
		"torn header":   good.Bytes()[:len(magic)+2],
		"trailing junk": append(append([]byte{}, good.Bytes()...), 'x'),
		"flipped byte": func() []byte {
			b := append([]byte{}, good.Bytes()...)
			b[len(b)/2] ^= 0x41
			return b
		}(),
	}
	for name, data := range cases {
		if ts, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: read %d tenants from corrupt registry", name, len(ts))
		}
	}
	if _, err := Read(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("pristine registry failed to read: %v", err)
	}
}

func TestValidationRejectsBadTenantSets(t *testing.T) {
	cases := map[string][]Tenant{
		"missing id":   {{KeyHash: HashKey("k")}},
		"missing hash": {{ID: "a"}},
		"dup id": {
			{ID: "a", KeyHash: HashKey("k1")},
			{ID: "a", KeyHash: HashKey("k2")},
		},
		"dup key": {
			{ID: "a", KeyHash: HashKey("k")},
			{ID: "b", KeyHash: HashKey("k")},
		},
	}
	for name, ts := range cases {
		if _, err := New(ts, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzTenantRegistryLoad pins the strict-load contract: arbitrary bytes
// must either parse into a full tenant list or error — never panic,
// never over-allocate, never partially apply.
func FuzzTenantRegistryLoad(f *testing.F) {
	var good bytes.Buffer
	if err := writeTenants(&good, sampleTenants()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte("UNIDETECT-TNTS\x01"))
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add(append(append([]byte{}, good.Bytes()...), 0))
	huge := append([]byte{}, good.Bytes()[:len(magic)]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF) // implausible frame length
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must re-serialize and re-parse to the same
		// list: no half-applied state can round-trip.
		var buf bytes.Buffer
		if err := writeTenants(&buf, ts); err != nil {
			t.Fatalf("re-encode of parsed registry failed: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of re-encoded registry failed: %v", err)
		}
		if len(back) != len(ts) {
			t.Fatalf("round trip changed tenant count %d -> %d", len(ts), len(back))
		}
	})
}

// TestReadAcceptsRetiredModelFields: a registry written while Tenant
// still carried ModelPath and ModelVersion keeps loading; gob drops the
// fields Tenant no longer has.
func TestReadAcceptsRetiredModelFields(t *testing.T) {
	type legacyTenant struct {
		ID           string
		KeyHash      string
		ModelPath    string
		ModelVersion int
		MaxBody      int64
		RatePerSec   float64
		Burst        int
	}
	var buf bytes.Buffer
	buf.Write(magic)
	if err := writeFrame(&buf, header{Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, legacyTenant{ID: "globex", KeyHash: HashKey("globex-key"),
		ModelPath: "globex.model", ModelVersion: 3, MaxBody: 4 << 20, RatePerSec: 0.5, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	ts, err := Read(&buf)
	if err != nil {
		t.Fatalf("registry with the retired model fields failed to load: %v", err)
	}
	want := Tenant{ID: "globex", KeyHash: HashKey("globex-key"), MaxBody: 4 << 20, RatePerSec: 0.5, Burst: 2}
	if len(ts) != 1 || ts[0] != want {
		t.Fatalf("loaded %+v, want [%+v]", ts, want)
	}
}

func TestSaveAndSaveFileRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	r, err := New(sampleTenants(), clk.now)
	if err != nil {
		t.Fatal(err)
	}
	// Save to a writer and read the bytes back.
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(sampleTenants()) || ts[1].MaxBody != 4<<20 {
		t.Fatalf("Save/Read round trip lost records: %+v", ts)
	}
	// SaveFile then Open: the durable round trip.
	path := filepath.Join(t.TempDir(), "tenants.reg")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Tenants(); len(got) != 3 || got[0].ID != "acme" {
		t.Fatalf("SaveFile/Open round trip: %+v", got)
	}
}

func TestLookup(t *testing.T) {
	r, err := New(sampleTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Lookup("globex"); !ok || got.MaxBody != 4<<20 {
		t.Fatalf("Lookup(globex) = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("nobody"); ok {
		t.Fatal("Lookup invented a tenant")
	}
}

func TestOpenAndReloadMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.reg")
	if _, err := Open(missing, nil); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	r, err := New(sampleTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(missing); err == nil {
		t.Fatal("Reload of a missing file succeeded")
	}
	if got := r.Tenants(); len(got) != 3 {
		t.Fatalf("failed Reload disturbed the snapshot: %+v", got)
	}
}

func TestWriteFileErrorPaths(t *testing.T) {
	dir := t.TempDir()
	// Create fails: the parent directory does not exist.
	if err := WriteFile(filepath.Join(dir, "no", "such", "dir.reg"), sampleTenants()); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	// No temp file may survive a failed write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed WriteFile left debris: %v", ents)
	}
}

// failWriter errors after n bytes, exercising the mid-stream write
// error branches of writeTenants/writeFrame.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, os.ErrClosed
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), os.ErrClosed
}

func TestWriteTenantsPropagatesWriterErrors(t *testing.T) {
	r, err := New(sampleTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{0, len(magic), len(magic) + 3, len(magic) + 20} {
		if err := r.Save(&failWriter{n: after}); err == nil {
			t.Fatalf("Save over a writer failing after %d bytes succeeded", after)
		}
	}
}

func TestQuotaZeroRateNeverRefills(t *testing.T) {
	clk := &fakeClock{}
	r, err := New([]Tenant{{ID: "frozen", KeyHash: HashKey("k"), RatePerSec: 0, Burst: 1}}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := r.Authenticate("k")
	if !ok {
		t.Fatal("authenticate failed")
	}
	if ok, _ := g.Allow(); !ok {
		t.Fatal("burst token refused")
	}
	clk.at += time.Hour
	ok, retry := g.Allow()
	if ok {
		t.Fatal("zero-rate bucket refilled")
	}
	if retry < time.Hour {
		t.Fatalf("zero-rate retryAfter = %v, want the never-refills sentinel", retry)
	}
}

// Package tenants is the daemon's on-disk tenant registry: tenant id →
// API-key hash, config overrides and quotas. The
// registry file is framed like the training checkpoint (magic + framed
// gob records, single-Write frames) but loads STRICTLY: a torn or
// corrupt file is a hard error and never partially applies — auth state
// must be all-or-nothing. A loaded registry is held behind an
// atomic.Pointer snapshot, so Reload hot-swaps the tenant set under
// live traffic the same way the daemon hot-swaps models, preserving the
// token-bucket fill levels of tenants whose quota didn't change.
package tenants

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unidetect/unidetect/internal/stats"
)

// Magic heads a serialized registry; the trailing byte versions the
// wire layout.
var magic = []byte("UNIDETECT-TNTS\x01")

// maxFrame bounds one tenant record's frame; a registry record is tiny,
// so anything near the bound is corruption.
const maxFrame = 1 << 20

// Tenant is one tenant's durable record.
type Tenant struct {
	// ID names the tenant in metrics, job ownership and logs.
	ID string
	// KeyHash is the hex SHA-256 of the tenant's API key (HashKey).
	// The plaintext key never touches disk.
	KeyHash string
	// MaxBody overrides the daemon's request body cap when > 0.
	MaxBody int64
	// RatePerSec refills the tenant's token bucket; with Burst <= 0 the
	// tenant is unthrottled.
	RatePerSec float64
	// Burst is the bucket capacity — the number of requests the tenant
	// may issue back-to-back before refill pacing kicks in.
	Burst int
}

// HashKey returns the registry's hash of an API key.
func HashKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// bucket is one tenant's token bucket. Time is the registry clock's
// monotonic duration, so tests drive quotas deterministically.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Duration
}

// take attempts to spend one token, refilling first. On refusal it
// reports how long until one token will be available.
func (b *bucket) take(now time.Duration, rate float64, burst int) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += rate * (now - b.last).Seconds()
		if max := float64(burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rate <= 0 {
		return false, time.Hour
	}
	need := 1 - b.tokens
	return false, time.Duration(need / rate * float64(time.Second))
}

// entry pairs a tenant with its live bucket. Buckets survive Reload for
// tenants whose quota shape didn't change, so a registry edit can't be
// used to wash a tenant's spent quota.
type entry struct {
	t Tenant
	b *bucket
}

type snapshot struct {
	list  []Tenant
	byKey map[string]*entry
	byID  map[string]*entry
}

// Registry is the live tenant set. Safe for concurrent use; reads are
// lock-free off the snapshot pointer.
type Registry struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes Reload/Save against each other
	now  func() time.Duration
}

// New builds an in-memory registry over the given tenants. now is the
// quota clock; nil uses the wall clock.
func New(ts []Tenant, now func() time.Duration) (*Registry, error) {
	r := &Registry{now: now}
	if r.now == nil {
		start := time.Now()
		r.now = func() time.Duration { return time.Since(start) }
	}
	snap, err := buildSnapshot(ts, nil)
	if err != nil {
		return nil, err
	}
	r.snap.Store(snap)
	return r, nil
}

func buildSnapshot(ts []Tenant, prev *snapshot) (*snapshot, error) {
	snap := &snapshot{
		byKey: make(map[string]*entry, len(ts)),
		byID:  make(map[string]*entry, len(ts)),
	}
	for _, t := range ts {
		if t.ID == "" || t.KeyHash == "" {
			return nil, fmt.Errorf("tenants: tenant record missing id or key hash")
		}
		if _, dup := snap.byID[t.ID]; dup {
			return nil, fmt.Errorf("tenants: duplicate tenant id %q", t.ID)
		}
		if _, dup := snap.byKey[t.KeyHash]; dup {
			return nil, fmt.Errorf("tenants: duplicate key hash for tenant %q", t.ID)
		}
		e := &entry{t: t}
		if t.Burst > 0 {
			// Carry the old bucket across reloads when the quota shape
			// is unchanged; otherwise start full.
			if prev != nil {
				if old, ok := prev.byID[t.ID]; ok && old.b != nil &&
					stats.SameFloat(old.t.RatePerSec, t.RatePerSec) && old.t.Burst == t.Burst {
					e.b = old.b
				}
			}
			if e.b == nil {
				e.b = &bucket{tokens: float64(t.Burst)}
			}
		}
		snap.byID[t.ID] = e
		snap.byKey[t.KeyHash] = e
		snap.list = append(snap.list, t)
	}
	return snap, nil
}

// Grant is an authenticated tenant plus its quota hook.
type Grant struct {
	Tenant Tenant
	e      *entry
	r      *Registry
}

// Allow spends one quota token. ok=false means the tenant is over
// quota; retryAfter says how long until a token is available.
func (g Grant) Allow() (ok bool, retryAfter time.Duration) {
	if g.e == nil || g.e.b == nil {
		return true, 0
	}
	return g.e.b.take(g.r.now(), g.Tenant.RatePerSec, g.Tenant.Burst)
}

// Authenticate resolves an API key to its tenant grant.
func (r *Registry) Authenticate(key string) (Grant, bool) {
	e, ok := r.snap.Load().byKey[HashKey(key)]
	if !ok {
		return Grant{}, false
	}
	return Grant{Tenant: e.t, e: e, r: r}, true
}

// Lookup resolves a tenant id.
func (r *Registry) Lookup(id string) (Tenant, bool) {
	e, ok := r.snap.Load().byID[id]
	if !ok {
		return Tenant{}, false
	}
	return e.t, true
}

// Tenants returns the current tenant list in file order.
func (r *Registry) Tenants() []Tenant {
	return append([]Tenant(nil), r.snap.Load().list...)
}

// Save writes the registry to w: magic, a framed header with the
// record count, then one frame per tenant. Each frame is assembled in
// memory and written with a single Write.
func (r *Registry) Save(w io.Writer) error {
	return writeTenants(w, r.snap.Load().list)
}

// SaveFile persists the registry to path via write-temp-then-rename, so
// a crash mid-write leaves the previous file intact.
func (r *Registry) SaveFile(path string) error {
	return WriteFile(path, r.snap.Load().list)
}

// WriteFile persists a tenant list to path atomically. Provisioning
// tools use this to author a registry without constructing a Registry.
func WriteFile(path string, ts []Tenant) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("tenants: create registry: %w", err)
	}
	err = writeTenants(f, ts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("tenants: write registry %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("tenants: commit registry: %w", err)
	}
	return nil
}

type header struct {
	Count int
}

func writeTenants(w io.Writer, ts []Tenant) error {
	if _, err := w.Write(magic); err != nil {
		return err
	}
	if err := writeFrame(w, header{Count: len(ts)}); err != nil {
		return err
	}
	for i := range ts {
		if err := writeFrame(w, ts[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeFrame(w io.Writer, v any) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("tenants: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

func readFrame(r io.Reader, v any) error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return fmt.Errorf("tenants: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("tenants: implausible frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("tenants: read frame: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("tenants: decode frame: %w", err)
	}
	return nil
}

// Read parses a registry file. Strict: wrong magic, torn tail, bad
// counts or trailing bytes all error, and nothing is applied.
func Read(r io.Reader) ([]Tenant, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("tenants: read registry magic: %w", err)
	}
	if !bytes.Equal(got, magic) {
		return nil, fmt.Errorf("tenants: bad registry magic")
	}
	var hdr header
	if err := readFrame(r, &hdr); err != nil {
		return nil, err
	}
	if hdr.Count < 0 || hdr.Count > 1<<20 {
		return nil, fmt.Errorf("tenants: implausible tenant count %d", hdr.Count)
	}
	ts := make([]Tenant, 0, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		var t Tenant
		if err := readFrame(r, &t); err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("tenants: trailing bytes after registry")
	}
	return ts, nil
}

// Open loads a registry file. now is the quota clock; nil uses the wall
// clock.
func Open(path string, now func() time.Duration) (*Registry, error) {
	ts, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return New(ts, now)
}

func readFile(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: open registry: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Reload re-reads path and hot-swaps the tenant set. On any load or
// validation error the current snapshot stays in place untouched —
// the all-or-nothing half of the resume contract. Buckets of tenants
// whose quota didn't change keep their fill level.
func (r *Registry) Reload(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := readFile(path)
	if err != nil {
		return err
	}
	snap, err := buildSnapshot(ts, r.snap.Load())
	if err != nil {
		return err
	}
	r.snap.Store(snap)
	return nil
}

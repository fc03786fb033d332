package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"spio/internal/cache"
	"spio/internal/format"
	rdr "spio/internal/reader"
)

// Fsck policies for Mount (Config.Fsck).
const (
	// FsckRefuse (the default) fails Mount/resolution for datasets with
	// integrity problems — leftover .spio-tmp files, torn data files,
	// metadata mismatches.
	FsckRefuse = "refuse"
	// FsckWarn logs the problems and serves the dataset anyway.
	FsckWarn = "warn"
	// FsckOff skips the mount-time check entirely.
	FsckOff = "off"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// Workers bounds concurrently executing requests (default 8).
	Workers int
	// QueueDepth bounds requests waiting for a worker; one more fails
	// fast with ErrOverloaded (default 4×Workers).
	QueueDepth int
	// MaxRespBytes is the per-request response byte budget: a query
	// whose particle payload exceeds it fails with a budget status
	// instead of materializing (default 1 GiB). A level of a progressive
	// read is a query like any other.
	MaxRespBytes int64
	// CacheBytes bounds the shared block cache (default 256 MiB).
	CacheBytes int64
	// BlockBytes is the block cache granularity (default DefaultBlockSize).
	BlockBytes int
	// FileCacheSlots is each mounted dataset's open-file cache capacity
	// (default 64).
	FileCacheSlots int
	// Fsck selects the mount-time integrity policy: FsckRefuse (default),
	// FsckWarn, or FsckOff.
	Fsck string
	// Logf, when non-nil, receives server log lines (log.Printf shaped).
	Logf func(format string, args ...any)
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 8
}

func (c *Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.workers()
}

func (c *Config) maxRespBytes() int64 {
	if c.MaxRespBytes > 0 {
		return c.MaxRespBytes
	}
	return 1 << 30
}

func (c *Config) cacheBytes() int64 {
	if c.CacheBytes > 0 {
		return c.CacheBytes
	}
	return 256 << 20
}

func (c *Config) fileCacheSlots() int {
	if c.FileCacheSlots > 0 {
		return c.FileCacheSlots
	}
	return 64
}

// mount is one served name: either a plain dataset directory or a
// time-series base (StepDir convention), resolved per request.
type mount struct {
	name   string
	dir    string
	series bool

	// open holds the opened datasets, each at cost 1: key "" for a plain
	// mount, the decimal step for a series mount. Its load opens and
	// checks a step once however many first requests race for it, and
	// its drop gives up the step's file cache (Server.openDataset).
	open *cache.Cache[string, *rdr.Dataset]
}

// mountSteps bounds the steps of one series mount held open at a time.
// Each holds up to FileCacheSlots (64) descriptors, so 8 is 512 of the
// usual soft limit of 1024 with the other half left to sockets and other
// mounts; a viewer scrubbing a series revisits its last few steps, not
// its first. One value is in use, so it is not a Config field.
const mountSteps = 8

// Server is the resident serving state: mounted datasets over a shared
// block cache, served through a Front whose Backend it is.
type Server struct {
	cfg   Config
	cache *BlockCache
	// open puts the shared block cache under every data file a mounted
	// dataset opens to read.
	open  format.OpenOptions
	front *Front

	mu     sync.Mutex
	mounts map[string]*mount
}

// New builds a Server; Mount datasets, then Serve listeners.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		cache:  NewBlockCache(cfg.cacheBytes(), cfg.BlockBytes),
		mounts: map[string]*mount{},
	}
	s.open.Seam = s.cache.ReaderFor
	s.front = NewFront(cfg, s)
	return s
}

// Serve accepts connections on l until Shutdown (see Front.Serve).
func (s *Server) Serve(l net.Listener) error { return s.front.Serve(l) }

// Shutdown drains the server (see Front.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Mount serves dir under name. A directory holding meta.spmd mounts as
// a plain dataset; a directory holding t000000-style step directories
// mounts as a series whose steps resolve as "name@N" ("name" and
// "name@latest" follow the newest readable step). The mount-time fsck
// policy (Config.Fsck) applies to the dataset — for a series, to its
// newest step now and to every step when first served.
func (s *Server) Mount(name, dir string) error {
	if name == "" || strings.ContainsAny(name, "@ \t\n") {
		return fmt.Errorf("spiod: invalid mount name %q", name)
	}
	m := &mount{name: name, dir: dir, open: cache.New[string](mountSteps, func(ds *rdr.Dataset) {
		// Idle handles close now, busy ones on their release; a query still
		// running on the step finishes on handles it opens and closes itself.
		_ = ds.SetFileCache(0) // always nil
	})}
	if _, err := os.Stat(filepath.Join(dir, format.MetaFileName)); err == nil {
		if _, err := s.openDataset(m, ""); err != nil {
			return err
		}
	} else {
		steps, err := rdr.Steps(dir)
		if err != nil {
			return fmt.Errorf("spiod: mount %s: %w", name, err)
		}
		if len(steps) == 0 {
			return fmt.Errorf("spiod: mount %s: %s is neither a dataset nor a step series", name, dir)
		}
		m.series = true
		// Sanity-check the newest step now so a broken series fails at
		// mount, not at first query.
		if _, err := s.openDataset(m, strconv.Itoa(steps[len(steps)-1])); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.mounts[name]; dup {
		return fmt.Errorf("spiod: mount %s: name already in use", name)
	}
	s.mounts[name] = m
	s.logf("spiod: mounted %s -> %s (series=%v)", name, dir, m.series)
	return nil
}

// openDataset returns the dataset for one mount key from the mount's
// cache, which on a miss opens it over the block cache (s.open) and
// checks it under the fsck policy — on plain handles, so a check fills
// no cache, and with no lock held: mount fsck reads every file (through
// the parallel decode pool for compressed payloads), and the requests
// for the mount's other steps go on beside it. Callers need not hold
// s.mu.
func (s *Server) openDataset(m *mount, key string) (*rdr.Dataset, error) {
	return m.open.Get(key, func() (*rdr.Dataset, int64, error) {
		dir := m.dir
		if m.series {
			step, err := strconv.Atoi(key)
			if err != nil {
				return nil, 0, fmt.Errorf("spiod: %s@%s: bad step reference", m.name, key)
			}
			dir = rdr.StepDir(m.dir, step)
		}
		ds, err := rdr.OpenWith(dir, s.open)
		if err != nil {
			return nil, 0, fmt.Errorf("spiod: %s: %w", m.name, err)
		}
		if err := s.checkDataset(m.name, ds); err != nil {
			return nil, 0, err
		}
		return ds, 1, ds.SetFileCache(s.cfg.fileCacheSlots())
	})
}

// checkDataset applies the mount-time fsck policy.
func (s *Server) checkDataset(name string, ds *rdr.Dataset) error {
	mode := s.cfg.Fsck
	if mode == "" {
		mode = FsckRefuse
	}
	if mode == FsckOff {
		return nil
	}
	problems := ds.Fsck(rdr.FsckOptions{})
	if len(problems) == 0 {
		return nil
	}
	for _, p := range problems {
		s.logf("spiod: fsck %s (%s): %s", name, ds.Dir(), p.String())
	}
	if mode == FsckWarn {
		return nil
	}
	return fmt.Errorf("spiod: refusing to serve %s: %d fsck problem(s), first: %s (use -fsck=warn to serve anyway)",
		name, len(problems), problems[0].String())
}

// Resolve maps a dataset reference — "name", "name@N", "name@latest" —
// to an open dataset (Backend).
func (s *Server) Resolve(ref string) (Dataset, error) {
	name, sel := ref, ""
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		name, sel = ref[:i], ref[i+1:]
	}
	s.mu.Lock()
	m, ok := s.mounts[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spiod: no dataset mounted as %q", name)
	}
	key := "" // the open-map key: "" for a plain mount, the decimal step for a series
	switch {
	case !m.series:
		if sel != "" {
			return nil, fmt.Errorf("spiod: %s is not a series (reference %q)", name, ref)
		}
	case sel == "" || sel == "latest":
		step, ok, err := rdr.LatestStep(m.dir)
		if err != nil {
			return nil, fmt.Errorf("spiod: %s: %w", name, err)
		}
		if !ok {
			return nil, fmt.Errorf("spiod: %s: no readable steps", name)
		}
		key = strconv.Itoa(step)
	default:
		step, err := strconv.Atoi(sel)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("spiod: %s: bad step reference %q", name, sel)
		}
		key = strconv.Itoa(step)
	}
	ds, err := s.openDataset(m, key)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// List returns the currently servable dataset references (Backend).
func (s *Server) List() []string {
	s.mu.Lock()
	mounts := make([]*mount, 0, len(s.mounts))
	for _, m := range s.mounts {
		mounts = append(mounts, m)
	}
	s.mu.Unlock()
	var refs []string
	for _, m := range mounts {
		if !m.series {
			refs = append(refs, m.name)
			continue
		}
		steps, err := rdr.Steps(m.dir)
		if err != nil {
			continue
		}
		for _, st := range steps {
			refs = append(refs, fmt.Sprintf("%s@%d", m.name, st))
		}
	}
	sort.Strings(refs)
	return refs
}

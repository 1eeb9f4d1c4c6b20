// Package dynapi is the Unix-flavoured programmer's interface to dynamic
// sets, modelled on the API the paper's co-author was adding to Unix
// (§1.1: "one of us (DCS) as part of a Ph.D. thesis is adding a set
// abstraction called dynamic sets to the Unix Application Programmer's
// Interface"): descriptor-based setOpen / setIterate / setDigest /
// setClose calls over distributed file-system paths with glob patterns.
//
//	api := dynapi.New(client)
//	api.Mount("/pub", dirNode)
//	sd, _ := api.SetOpen(ctx, "/pub/*.ps", core.DynOptions{Width: 8})
//	for {
//	    entry, ok, err := api.SetIterate(ctx, sd)
//	    if err != nil || !ok { break }
//	    render(entry)
//	}
//	api.SetClose(sd)
//
// SetOpen returns once the membership is read; contents stream in behind
// the descriptor in parallel, closest first, and SetIterate hands them out
// in completion order — so the first typically completes after a single
// near-server round trip. Unreachable entries are skipped, not awaited.
package dynapi

import (
	"context"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"weaksets/internal/core"
	"weaksets/internal/fsim"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
)

// SD is a set descriptor, the handle SetOpen returns.
type SD int

// Errors reported by the API.
var (
	// ErrBadDescriptor reports use of a closed or never-opened descriptor.
	ErrBadDescriptor = errors.New("dynapi: bad set descriptor")
	// ErrNotMounted reports a path whose directory has no mounted node.
	ErrNotMounted = errors.New("dynapi: directory not mounted")
	// ErrBadPattern reports an invalid glob pattern.
	ErrBadPattern = errors.New("dynapi: bad pattern")
)

// API is a per-client dynamic-sets session table. It is safe for
// concurrent use across descriptors; one descriptor is one iterator run,
// whose calls the caller serializes — SetClose must not overlap a
// SetIterate on the same descriptor.
type API struct {
	client *repo.Client
	fs     *fsim.FS

	mu     sync.Mutex
	mounts map[string]netsim.NodeID
	next   SD
	open   map[SD]*session
}

type session struct {
	ds      *core.Iterator
	pattern string
	base    string // glob applied to entry names
}

// New creates an API bound to a repository client.
func New(client *repo.Client) *API {
	return &API{
		client: client,
		fs:     fsim.New(client),
		mounts: make(map[string]netsim.NodeID),
		open:   make(map[SD]*session),
	}
}

// FS exposes the underlying file-system view (for building trees in tests
// and examples).
func (a *API) FS() *fsim.FS { return a.fs }

// Mount records which node holds the collection for directory dir.
// Resolution picks the longest mounted prefix.
func (a *API) Mount(dir string, node netsim.NodeID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mounts[path.Clean(dir)] = node
}

// resolve finds the mounted node for a directory via longest-prefix match.
func (a *API) resolve(dir string) (netsim.NodeID, error) {
	dir = path.Clean(dir)
	a.mu.Lock()
	defer a.mu.Unlock()
	for p := dir; ; p = path.Dir(p) {
		if node, ok := a.mounts[p]; ok {
			return node, nil
		}
		if p == "/" || p == "." {
			return "", fmt.Errorf("%w: %s", ErrNotMounted, dir)
		}
	}
}

// SetOpen opens a dynamic set over every entry of the pattern's directory
// whose name matches the pattern's base glob (path.Match syntax: `*`, `?`,
// character classes). The directory part must be literal.
func (a *API) SetOpen(ctx context.Context, pattern string, opts core.DynOptions) (SD, error) {
	dir, base := path.Split(path.Clean(pattern))
	if dir == "" {
		dir = "/"
	}
	if strings.ContainsAny(dir, `*?[`) {
		return 0, fmt.Errorf("%w: glob in directory part of %q", ErrBadPattern, pattern)
	}
	if _, err := path.Match(base, "probe"); err != nil {
		return 0, fmt.Errorf("%w: %q: %v", ErrBadPattern, pattern, err)
	}
	node, err := a.resolve(dir)
	if err != nil {
		return 0, err
	}
	ds, err := a.fs.LsDyn(ctx, node, dir, opts)
	if err != nil {
		return 0, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.next++
	sd := a.next
	a.open[sd] = &session{ds: ds, pattern: pattern, base: base}
	return sd, nil
}

func (a *API) session(sd SD) (*session, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.open[sd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadDescriptor, int(sd))
	}
	return s, nil
}

// SetIterate yields the next matching entry in completion order. ok=false
// with a nil error means the set is exhausted.
func (a *API) SetIterate(ctx context.Context, sd SD) (entry fsim.Entry, ok bool, err error) {
	s, err := a.session(sd)
	if err != nil {
		return fsim.Entry{}, false, err
	}
	for s.ds.Next(ctx) {
		e := fsim.EntryFromElement(s.ds.Element())
		matched, _ := path.Match(s.base, e.Name)
		if matched {
			return e, true, nil
		}
	}
	return fsim.Entry{}, false, s.ds.Err()
}

// SetDigest returns the matching member *names* without fetching any
// contents — the cheap existence probe of the dynamic-sets API. It reads
// the directory membership once.
func (a *API) SetDigest(ctx context.Context, sd SD) ([]string, error) {
	s, err := a.session(sd)
	if err != nil {
		return nil, err
	}
	dir, _ := path.Split(path.Clean(s.pattern))
	if dir == "" {
		dir = "/"
	}
	node, err := a.resolve(dir)
	if err != nil {
		return nil, err
	}
	entries, err := a.fs.Names(ctx, node, dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range entries {
		if matched, _ := path.Match(s.base, name); matched {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Skipped reports the entries the descriptor's run has not yielded: once
// the set is exhausted, the unreachable ones.
func (a *API) Skipped(sd SD) ([]repo.Ref, error) {
	s, err := a.session(sd)
	if err != nil {
		return nil, err
	}
	return s.ds.Skipped(), nil
}

// SetClose releases the descriptor and stops its prefetching. It must not
// overlap a SetIterate on the same descriptor.
func (a *API) SetClose(sd SD) error {
	a.mu.Lock()
	s, ok := a.open[sd]
	delete(a.open, sd)
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadDescriptor, int(sd))
	}
	return s.ds.Close(context.Background())
}

// OpenCount reports the number of live descriptors (leak checks).
func (a *API) OpenCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.open)
}

// CloseAll closes every open descriptor.
func (a *API) CloseAll() {
	a.mu.Lock()
	sessions := make([]*session, 0, len(a.open))
	for _, s := range a.open {
		sessions = append(sessions, s)
	}
	a.open = make(map[SD]*session)
	a.mu.Unlock()
	for _, s := range sessions {
		_ = s.ds.Close(context.Background())
	}
}

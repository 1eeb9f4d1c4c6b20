// Package fsim is the distributed file-system substrate the paper's
// dynamic sets were designed for (§1.1): directories are collections, held
// on a directory node; "files and subdirectories in the same directory may
// reside on nodes different from each other and/or from the directory
// itself". It offers both the classic strict `ls` — fetch every entry, in
// order, fail on the first unreachable file — and a dynamic-set `ls` that
// fetches in parallel, closest first, yielding whatever is accessible.
package fsim

import (
	"context"
	"fmt"
	"path"
	"sort"
	"strings"

	"weaksets/internal/core"
	"weaksets/internal/netsim"
	"weaksets/internal/repo"
)

// EntryType distinguishes directory entries.
type EntryType string

// Entry types.
const (
	TypeFile EntryType = "file"
	TypeDir  EntryType = "dir"
)

// Attribute keys used on file-system objects.
const (
	attrType = "fs.type"
	attrName = "fs.name"
	attrDir  = "fs.dirnode"
)

// Entry is one directory entry, with its content when fetched.
type Entry struct {
	Name string
	Type EntryType
	Ref  repo.Ref
	Data []byte
	// DirNode, for subdirectories, is the node holding the subdirectory's
	// collection.
	DirNode netsim.NodeID
}

// FS is a client-side view of the distributed file system.
type FS struct {
	client *repo.Client
}

// New builds a file-system view over the repository client.
func New(client *repo.Client) *FS {
	return &FS{client: client}
}

func collName(dir string) string { return "fsdir:" + path.Clean(dir) }

func fileID(p string) repo.ObjectID { return repo.ObjectID("fsobj:" + path.Clean(p)) }

// Mkdir creates directory p with its collection hosted on dirNode. For a
// non-root directory the parent must already exist; the new directory is
// linked into it.
func (fs *FS) Mkdir(ctx context.Context, parentNode, dirNode netsim.NodeID, p string) error {
	p = path.Clean(p)
	if err := fs.client.CreateCollection(ctx, dirNode, collName(p)); err != nil {
		return fmt.Errorf("fsim: mkdir %q: %w", p, err)
	}
	if p == "/" || p == "." {
		return nil
	}
	parent := path.Dir(p)
	marker := repo.Object{
		ID: fileID(p),
		Attrs: map[string]string{
			attrType: string(TypeDir),
			attrName: path.Base(p),
			attrDir:  string(dirNode),
		},
	}
	ref, err := fs.client.Put(ctx, dirNode, marker)
	if err != nil {
		return fmt.Errorf("fsim: mkdir %q: %w", p, err)
	}
	if err := fs.client.Add(ctx, parentNode, collName(parent), ref); err != nil {
		return fmt.Errorf("fsim: link %q into %q: %w", p, parent, err)
	}
	return nil
}

// WriteFile creates (or overwrites) file p with data stored on
// storageNode, linking it into its parent directory hosted on parentNode.
func (fs *FS) WriteFile(ctx context.Context, parentNode, storageNode netsim.NodeID, p string, data []byte) (repo.Ref, error) {
	p = path.Clean(p)
	obj := repo.Object{
		ID:   fileID(p),
		Data: data,
		Attrs: map[string]string{
			attrType: string(TypeFile),
			attrName: path.Base(p),
		},
	}
	ref, err := fs.client.Put(ctx, storageNode, obj)
	if err != nil {
		return repo.Ref{}, fmt.Errorf("fsim: write %q: %w", p, err)
	}
	if err := fs.client.Add(ctx, parentNode, collName(path.Dir(p)), ref); err != nil {
		return repo.Ref{}, fmt.Errorf("fsim: link %q: %w", p, err)
	}
	return ref, nil
}

// Remove unlinks file p from its parent directory (hosted on parentNode)
// and deletes its data.
func (fs *FS) Remove(ctx context.Context, parentNode netsim.NodeID, p string, ref repo.Ref) error {
	if err := fs.client.DeleteMember(ctx, parentNode, collName(path.Dir(path.Clean(p))), ref); err != nil {
		return fmt.Errorf("fsim: remove %q: %w", p, err)
	}
	return nil
}

// entryOf converts a fetched object into an Entry.
func entryOf(ref repo.Ref, obj repo.Object) Entry {
	e := Entry{
		Name: obj.Attrs[attrName],
		Type: EntryType(obj.Attrs[attrType]),
		Ref:  ref,
		Data: obj.Data,
	}
	if e.Type == TypeDir {
		e.DirNode = netsim.NodeID(obj.Attrs[attrDir])
	}
	if e.Name == "" {
		e.Name = string(ref.ID)
	}
	return e
}

// LsStrict is the traditional ls: it lists the directory and fetches every
// entry in name order, one at a time, and fails on the first entry it
// cannot reach — "requiring that all files be accessed before ls returns"
// (§1.1).
func (fs *FS) LsStrict(ctx context.Context, dirNode netsim.NodeID, p string) ([]Entry, error) {
	refs, _, err := fs.client.List(ctx, dirNode, collName(p))
	if err != nil {
		return nil, fmt.Errorf("fsim: ls %q: %w", p, err)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	entries := make([]Entry, 0, len(refs))
	for _, ref := range refs {
		obj, err := fs.client.Get(ctx, ref)
		if err != nil {
			return entries, fmt.Errorf("fsim: ls %q: stat %q: %w", p, ref.ID, err)
		}
		entries = append(entries, entryOf(ref, obj))
	}
	return entries, nil
}

// Names lists the entry names of directory p without fetching any entry's
// contents — a single membership read. Names are recovered from the
// directory's member identifiers, so this costs one round trip regardless
// of where the entries live.
func (fs *FS) Names(ctx context.Context, dirNode netsim.NodeID, p string) ([]string, error) {
	refs, _, err := fs.client.List(ctx, dirNode, collName(p))
	if err != nil {
		return nil, fmt.Errorf("fsim: names %q: %w", p, err)
	}
	names := make([]string, 0, len(refs))
	for _, ref := range refs {
		id := string(ref.ID)
		if cut, ok := strings.CutPrefix(id, "fsobj:"); ok {
			id = cut
		}
		names = append(names, path.Base(id))
	}
	sort.Strings(names)
	return names, nil
}

// LsDyn is the dynamic-set ls: entries are fetched in parallel, closest
// first, and returned in completion order; unreachable entries are
// reported via the run's Skipped instead of failing the listing. The
// caller must Close the returned run.
func (fs *FS) LsDyn(ctx context.Context, dirNode netsim.NodeID, p string, opts core.DynOptions) (*core.Iterator, error) {
	ds, err := core.OpenDyn(ctx, fs.client, dirNode, collName(p), opts)
	if err != nil {
		return nil, fmt.Errorf("fsim: dynamic ls %q: %w", p, err)
	}
	return ds, nil
}

// EntryFromElement converts a dynamic-set element into a directory Entry.
func EntryFromElement(e core.Element) Entry {
	return entryOf(e.Ref, repo.Object{ID: e.Ref.ID, Data: e.Data, Attrs: e.Attrs})
}

// Set returns a weak set over directory p with the given options, for
// iterating a directory under any of the paper's semantics.
func (fs *FS) Set(dirNode netsim.NodeID, p string, opts core.Options) (*core.Set, error) {
	return core.NewSet(fs.client, dirNode, collName(p), opts)
}

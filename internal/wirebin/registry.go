package wirebin

import (
	"fmt"
	"reflect"
	"sync"
)

// EncodeFunc appends v's wirebin form to buf. The caller guarantees v is
// the registered concrete type (transport code looks codecs up by type).
type EncodeFunc func(buf []byte, v any) []byte

// DecodeFunc decodes one value from r. Implementations must leave errors
// to the reader's sticky error and return the zero value on failure.
type DecodeFunc func(r *Reader) any

type entry struct {
	id  uint16
	enc EncodeFunc
	dec DecodeFunc
}

// The registry maps concrete message types to stable numeric ids. It is
// written only from init functions (internal/repo and internal/locksvc
// register their wire structs) and read on every frame, so a plain map
// under a RWMutex is uncontended in practice.
var (
	regMu   sync.RWMutex
	regType = map[reflect.Type]entry{}
	regByID = map[uint16]entry{}
)

// Register binds message type T to a stable wire id with its typed
// encode/decode pair. Ids must be unique and non-zero; both sides of a
// connection must agree on the numbering, which the version byte in the
// connection preamble stands for.
func Register[T any](id uint16, enc func([]byte, T) []byte, dec func(*Reader) T) {
	if id == 0 {
		panic("wirebin: id 0 is reserved")
	}
	t := reflect.TypeOf((*T)(nil)).Elem()
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByID[id]; dup {
		panic(fmt.Sprintf("wirebin: duplicate id %d", id))
	}
	if _, dup := regType[t]; dup {
		panic(fmt.Sprintf("wirebin: duplicate type %v", t))
	}
	e := entry{
		id:  id,
		enc: func(buf []byte, v any) []byte { return enc(buf, v.(T)) },
		dec: func(r *Reader) any { return dec(r) },
	}
	regType[t] = e
	regByID[id] = e
}

// Lookup finds the registered codec for v's concrete type.
func Lookup(v any) (id uint16, enc EncodeFunc, ok bool) {
	regMu.RLock()
	e, ok := regType[reflect.TypeOf(v)]
	regMu.RUnlock()
	return e.id, e.enc, ok
}

// ByID finds the registered decoder for a wire id.
func ByID(id uint16) (DecodeFunc, bool) {
	regMu.RLock()
	e, ok := regByID[id]
	regMu.RUnlock()
	return e.dec, ok
}

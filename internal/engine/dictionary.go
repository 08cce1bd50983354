package engine

import (
	"fmt"

	"iomodels/internal/storage"
)

// Dictionary is the common external-memory dictionary interface: every
// tree in this repo (B-tree, Bε-tree, LSM-tree, cache-oblivious B-tree)
// implements it, so experiments and examples can sweep structures
// generically. Keys and values are copied on Put; callbacks must not retain
// the slices they are handed.
type Dictionary interface {
	// Get returns the value for key, or false if absent.
	Get(key []byte) ([]byte, bool)
	// Put inserts or replaces key.
	Put(key, value []byte)
	// Delete removes key, reporting whether the operation was accepted
	// (message-buffered structures accept deletes for keys they have not
	// yet materialized, so true does not imply the key was present).
	Delete(key []byte) bool
	// Scan visits keys in [lo, hi) in order until fn returns false.
	Scan(lo, hi []byte, fn func(key, value []byte) bool)
	// Stats reports the dictionary's size and IO behaviour.
	Stats() Stats
}

// Tree is what every tree in this repo declares: a Dictionary that lends
// its read paths to sessions, with the paying client as a parameter (Get
// and Scan are these on the tree's owner client), and writes back what it
// buffers on Flush.
type Tree interface {
	Dictionary
	// GetAs is Get charged to c.
	GetAs(c *Client, key []byte) ([]byte, bool)
	// ScanAs is Scan charged to c.
	ScanAs(c *Client, lo, hi []byte, fn func(key, value []byte) bool)
	// Flush writes every buffered update and dirty page back to the device.
	Flush()
}

// Session is one client's handle onto a shared tree: reads (Get/Scan) run
// in the client's own virtual timeline through the shared pager, so k
// sessions on k sim processes overlap their IOs on the device. Mutations
// are delegated to the tree's single-writer owner client and must not run
// concurrently with other operations. Snapshot reads take a Session as the
// fall-through dictionary (Snap.Get, Snap.Scan).
type Session struct {
	t Tree
	c *Client
}

// NewSession creates a client-bound view of the tree (each tree's
// Session(c) method is this).
func NewSession(t Tree, c *Client) *Session { return &Session{t: t, c: c} }

// Client returns the session's engine client.
func (s *Session) Client() *Client { return s.c }

// Get returns the value for key, charging IO to the session's client.
func (s *Session) Get(key []byte) ([]byte, bool) { return s.t.GetAs(s.c, key) }

// Scan visits [lo, hi) in order, charging IO to the session's client.
func (s *Session) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	s.t.ScanAs(s.c, lo, hi, fn)
}

// Put delegates to the tree's single-writer path.
func (s *Session) Put(key, value []byte) { s.t.Put(key, value) }

// Delete delegates to the tree's single-writer path.
func (s *Session) Delete(key []byte) bool { return s.t.Delete(key) }

// Stats reports the shared tree's stats.
func (s *Session) Stats() Stats { return s.t.Stats() }

// Stats is a Dictionary's self-report, uniform across structures.
type Stats struct {
	// Items is the number of live keys (approximate for structures that
	// buffer deletes).
	Items int
	// LogicalBytes is the key and value bytes the dictionary was handed
	// to insert: the denominator of write amplification.
	LogicalBytes int64
	// IO aggregates device traffic attributed to the dictionary's engine.
	IO storage.Counters
	// Pager is the buffer-pool traffic of the dictionary's engine.
	Pager PagerStats
}

// String gives a multi-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("items=%d\nio: %v\npager: %v", s.Items, s.IO, s.Pager)
}

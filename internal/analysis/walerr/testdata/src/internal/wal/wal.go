// Package wal models the WAL's durable-write API.
package wal

import "errors"

// Log is the write-ahead log.
type Log struct{ full bool }

// Append returns (seq, error).
func (l *Log) Append(p []byte) (uint64, error) {
	if l.full {
		return 0, errors.New("log full")
	}
	return 1, nil
}

// Commit returns the durability error.
func (l *Log) Commit() error { return nil }

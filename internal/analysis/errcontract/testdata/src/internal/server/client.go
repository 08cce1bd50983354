// The wire client whose methods carry the typed protocol contract.

package server

import "errors"

var (
	ErrTimeout  = errors.New("request timed out")
	ErrPoisoned = errors.New("connection poisoned")
)

type Client struct{}

func (c *Client) Ping() error                          { return nil }
func (c *Client) Get(key []byte) ([]byte, bool, error) { return nil, false, nil }
func (c *Client) Put(key, value []byte) error          { return nil }
func (c *Client) Close() error                         { return nil }

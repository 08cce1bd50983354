// Configuration and on-disk layout geometry for the Bε-tree.
//
// Two disk layouts are supported, selecting between the paper's naive
// Lemma 8 analysis and the optimized Theorem 9 node organization:
//
//   - Packed: a node is one variable-layout byte stream; every load reads
//     the whole extent (per-level query cost 1+αB).
//   - Slotted: a node is a small meta region plus MaxFanout fixed-stride
//     slots. Slot i of an internal node holds child i's routing info (its
//     pivot set — "the pivots of a node are stored in the node's parent") -
//     followed by the buffered messages destined for child i, bounded by
//     the slot stride (the paper's "no more than B/F elements destined for
//     a particular child"). Slot i of a leaf is a basement block of
//     entries (TokuDB's sub-nodes). Queries read one slot per level: cost
//     1 + αB/F + αF.
//
// QueryMode further separates the Theorem 9 ingredients for the ablation
// experiment: whole-node reads, meta+slot reads (segmented buffers but
// pivots read from the node itself), or slot-only reads (pivots carried
// down from the parent).

package betree

import (
	"fmt"

	"iomodels/internal/kv"
)

// Layout selects the on-disk node organization.
type Layout int

// Layouts.
const (
	Packed Layout = iota
	Slotted
)

// QueryMode selects how much of a node a point query reads on a miss.
type QueryMode int

// Query modes.
const (
	// WholeNode reads the full extent per level (Lemma 8: 1+αB).
	WholeNode QueryMode = iota
	// MetaPlusSlot reads the meta region, then the one relevant slot
	// (segmented buffers without pivots-in-parent: 2 + αB/F + αF).
	MetaPlusSlot
	// SlotOnly reads only the relevant slot, routing with pivots carried
	// from the parent (full Theorem 9: 1 + αB/F + αF).
	SlotOnly
)

func (m QueryMode) String() string {
	switch m {
	case WholeNode:
		return "whole-node"
	case MetaPlusSlot:
		return "meta+slot"
	case SlotOnly:
		return "slot-only"
	default:
		return fmt.Sprintf("querymode(%d)", int(m))
	}
}

// FlushPolicy selects which child buffer a flush drains.
type FlushPolicy int

// Flush policies.
const (
	// FlushFullest drains the child with the most pending bytes — the
	// paper's design ("typically v is chosen to be the child with the most
	// pending messages"), which maximizes bytes moved per IO.
	FlushFullest FlushPolicy = iota
	// FlushRoundRobin drains children cyclically regardless of pending
	// bytes — the ablation baseline, markedly worse under skew.
	FlushRoundRobin
)

func (f FlushPolicy) String() string {
	if f == FlushRoundRobin {
		return "round-robin"
	}
	return "fullest-child"
}

// Config shapes a Bε-tree.
type Config struct {
	// NodeBytes is the extent size of every node: the paper's B.
	NodeBytes int
	// MaxFanout is the target fanout F (TokuDB uses 16; the paper's
	// practical range is [10, 20]; F = √B gives ε = 1/2).
	MaxFanout int
	// MaxKeyBytes and MaxValueBytes bound one key-value pair.
	MaxKeyBytes   int
	MaxValueBytes int
	// Layout and QueryMode select the node organization (see package docs).
	Layout    Layout
	QueryMode QueryMode
	// FlushPolicy selects the flush victim (default: fullest child).
	FlushPolicy FlushPolicy
}

// DefaultFanout is TokuDB's target fanout.
const DefaultFanout = 16

// OptimizedConfig returns cfg with the full Theorem 9 organization enabled.
func (c Config) Optimized() Config {
	c.Layout = Slotted
	c.QueryMode = SlotOnly
	return c
}

const (
	// metaBase covers magic, leaf flag, height, child count and crc.
	metaBase = 16
	// slotHeader covers a count field and crc per slot.
	slotHeader = 8
	ptrBytes   = 8
)

// maxMsgBytes bounds one serialized message: kv.EncodedMessageSize of a
// max-size key and value, summed without building them (leafCapBytes asks
// on every leaf flush).
func (c Config) maxMsgBytes() int {
	return kv.EncodedMessageSize(nil, nil) + c.MaxKeyBytes + c.MaxValueBytes
}

// maxEntryBytes bounds one serialized leaf entry, as maxMsgBytes does a
// message.
func (c Config) maxEntryBytes() int {
	return kv.EncodedEntrySize(nil, nil) + c.MaxKeyBytes + c.MaxValueBytes
}

// maxRouteKeyBytes bounds one serialized routing key.
func (c Config) maxRouteKeyBytes() int { return 4 + c.MaxKeyBytes }

// routeCap bounds a serialized route (a child's pivot set + pointers, or a
// leaf's basement boundaries): up to MaxFanout-1 keys and MaxFanout
// pointers, with headers.
func (c Config) routeCap() int {
	return 8 + c.MaxFanout*c.maxRouteKeyBytes() + (c.MaxFanout+1)*ptrBytes
}

// metaCap is the reserved size of the meta region in the Slotted layout:
// header plus the node's own children pointers and pivots. It is sized for
// twice the target fanout because flush cascades let a node's fanout exceed
// MaxFanout transiently, between a recursive flush and the split that
// follows it.
func (c Config) metaCap() int {
	return metaBase + (2*c.MaxFanout+2)*(ptrBytes+c.maxRouteKeyBytes()) + 4
}

// slotStride is the fixed size of one slot in the Slotted layout: ~B/F.
func (c Config) slotStride() int {
	return (c.NodeBytes - c.metaCap()) / c.MaxFanout
}

// slot returns slot i of a Slotted extent.
func (c Config) slot(ext []byte, i int) []byte {
	start := c.metaCap() + i*c.slotStride()
	return ext[start : start+c.slotStride()]
}

// bufCap is the message capacity of one slot (after its header and the
// child's route).
func (c Config) bufCap() int { return c.slotStride() - slotHeader - c.routeCap() }

// basementCap is the entry capacity of one leaf basement block.
func (c Config) basementCap() int { return c.slotStride() - slotHeader }

// leafCapBytes is the total entry capacity of a leaf.
func (c Config) leafCapBytes() int {
	if c.Layout == Slotted {
		// Keep slack so a deterministic re-partition into MaxFanout
		// basements of at most basementCap each always succeeds.
		return c.MaxFanout*c.basementCap() - c.MaxFanout*c.maxEntryBytes()
	}
	return c.NodeBytes - metaBase - c.maxEntryBytes()
}

// packedBufCapBytes is the total buffer capacity of a Packed internal node.
func (c Config) packedBufCapBytes() int {
	return c.NodeBytes - c.metaCap() - c.MaxFanout*(slotHeader+c.routeCap())
}

func (c Config) validate() error {
	if c.NodeBytes <= 0 || c.MaxFanout < 2 || c.MaxKeyBytes <= 0 || c.MaxValueBytes < 0 {
		return fmt.Errorf("betree: invalid config field")
	}
	if c.Layout == Slotted {
		if c.bufCap() < 2*c.maxMsgBytes() {
			return fmt.Errorf("betree: NodeBytes %d too small for fanout %d: slot buffer capacity %d < 2 max messages (%d)",
				c.NodeBytes, c.MaxFanout, c.bufCap(), c.maxMsgBytes())
		}
		if c.basementCap() < 2*c.maxEntryBytes() {
			return fmt.Errorf("betree: basement capacity %d < 2 max entries", c.basementCap())
		}
	} else {
		if c.packedBufCapBytes() < 2*c.MaxFanout*c.maxMsgBytes() {
			return fmt.Errorf("betree: NodeBytes %d too small for fanout %d in packed layout", c.NodeBytes, c.MaxFanout)
		}
	}
	if c.leafCapBytes() < 4*c.maxEntryBytes() {
		return fmt.Errorf("betree: leaf capacity %d too small for 4 max entries", c.leafCapBytes())
	}
	return nil
}

// Epsilon reports the effective ε implied by the configuration, from
// F = B^ε with B measured in entries: ε = ln F / ln(B/entry).
func (c Config) Epsilon(avgEntryBytes int) float64 {
	b := float64(c.NodeBytes) / float64(avgEntryBytes)
	if b <= 1 {
		return 1
	}
	return logf(float64(c.MaxFanout)) / logf(b)
}

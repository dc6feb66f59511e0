package main

import "mobistreams/internal/operator"

// The traced wrapper of an operator must implement exactly the interfaces
// the wrapped operator implements: the node runtime type-asserts operators
// for Processor/LegacyProcessor, DeltaSnapshotter, KeyedStater and
// TimerOperator, and the stream builder for Renamable, so one extra or
// missing method would change what the program does. Each interface is a
// part type in opwrap.go; every combination of parts is one struct below,
// named by its bits (legacy, delta, keyed, timer, rename).

type opw00000 struct {
	*tracedOp
	procPart
}

type opw00001 struct {
	*tracedOp
	procPart
	renamePart
}

type opw00010 struct {
	*tracedOp
	procPart
	timerPart
}

type opw00011 struct {
	*tracedOp
	procPart
	timerPart
	renamePart
}

type opw00100 struct {
	*tracedOp
	procPart
	keyedPart
}

type opw00101 struct {
	*tracedOp
	procPart
	keyedPart
	renamePart
}

type opw00110 struct {
	*tracedOp
	procPart
	keyedPart
	timerPart
}

type opw00111 struct {
	*tracedOp
	procPart
	keyedPart
	timerPart
	renamePart
}

type opw01000 struct {
	*tracedOp
	procPart
	deltaPart
}

type opw01001 struct {
	*tracedOp
	procPart
	deltaPart
	renamePart
}

type opw01010 struct {
	*tracedOp
	procPart
	deltaPart
	timerPart
}

type opw01011 struct {
	*tracedOp
	procPart
	deltaPart
	timerPart
	renamePart
}

type opw01100 struct {
	*tracedOp
	procPart
	deltaPart
	keyedPart
}

type opw01101 struct {
	*tracedOp
	procPart
	deltaPart
	keyedPart
	renamePart
}

type opw01110 struct {
	*tracedOp
	procPart
	deltaPart
	keyedPart
	timerPart
}

type opw01111 struct {
	*tracedOp
	procPart
	deltaPart
	keyedPart
	timerPart
	renamePart
}

type opw10000 struct {
	*tracedOp
	legacyPart
}

type opw10001 struct {
	*tracedOp
	legacyPart
	renamePart
}

type opw10010 struct {
	*tracedOp
	legacyPart
	timerPart
}

type opw10011 struct {
	*tracedOp
	legacyPart
	timerPart
	renamePart
}

type opw10100 struct {
	*tracedOp
	legacyPart
	keyedPart
}

type opw10101 struct {
	*tracedOp
	legacyPart
	keyedPart
	renamePart
}

type opw10110 struct {
	*tracedOp
	legacyPart
	keyedPart
	timerPart
}

type opw10111 struct {
	*tracedOp
	legacyPart
	keyedPart
	timerPart
	renamePart
}

type opw11000 struct {
	*tracedOp
	legacyPart
	deltaPart
}

type opw11001 struct {
	*tracedOp
	legacyPart
	deltaPart
	renamePart
}

type opw11010 struct {
	*tracedOp
	legacyPart
	deltaPart
	timerPart
}

type opw11011 struct {
	*tracedOp
	legacyPart
	deltaPart
	timerPart
	renamePart
}

type opw11100 struct {
	*tracedOp
	legacyPart
	deltaPart
	keyedPart
}

type opw11101 struct {
	*tracedOp
	legacyPart
	deltaPart
	keyedPart
	renamePart
}

type opw11110 struct {
	*tracedOp
	legacyPart
	deltaPart
	keyedPart
	timerPart
}

type opw11111 struct {
	*tracedOp
	legacyPart
	deltaPart
	keyedPart
	timerPart
	renamePart
}

// combineParts builds the wrapper type whose part set matches mask (bit 4:
// legacy contract, 3: delta, 2: keyed, 1: timer, 0: rename).
func combineParts(mask int, c *tracedOp, p opParts) operator.Operator {
	switch mask {
	case 0:
		return &opw00000{c, p.proc}
	case 1:
		return &opw00001{c, p.proc, p.rename}
	case 2:
		return &opw00010{c, p.proc, p.timer}
	case 3:
		return &opw00011{c, p.proc, p.timer, p.rename}
	case 4:
		return &opw00100{c, p.proc, p.keyed}
	case 5:
		return &opw00101{c, p.proc, p.keyed, p.rename}
	case 6:
		return &opw00110{c, p.proc, p.keyed, p.timer}
	case 7:
		return &opw00111{c, p.proc, p.keyed, p.timer, p.rename}
	case 8:
		return &opw01000{c, p.proc, p.delta}
	case 9:
		return &opw01001{c, p.proc, p.delta, p.rename}
	case 10:
		return &opw01010{c, p.proc, p.delta, p.timer}
	case 11:
		return &opw01011{c, p.proc, p.delta, p.timer, p.rename}
	case 12:
		return &opw01100{c, p.proc, p.delta, p.keyed}
	case 13:
		return &opw01101{c, p.proc, p.delta, p.keyed, p.rename}
	case 14:
		return &opw01110{c, p.proc, p.delta, p.keyed, p.timer}
	case 15:
		return &opw01111{c, p.proc, p.delta, p.keyed, p.timer, p.rename}
	case 16:
		return &opw10000{c, p.legacy}
	case 17:
		return &opw10001{c, p.legacy, p.rename}
	case 18:
		return &opw10010{c, p.legacy, p.timer}
	case 19:
		return &opw10011{c, p.legacy, p.timer, p.rename}
	case 20:
		return &opw10100{c, p.legacy, p.keyed}
	case 21:
		return &opw10101{c, p.legacy, p.keyed, p.rename}
	case 22:
		return &opw10110{c, p.legacy, p.keyed, p.timer}
	case 23:
		return &opw10111{c, p.legacy, p.keyed, p.timer, p.rename}
	case 24:
		return &opw11000{c, p.legacy, p.delta}
	case 25:
		return &opw11001{c, p.legacy, p.delta, p.rename}
	case 26:
		return &opw11010{c, p.legacy, p.delta, p.timer}
	case 27:
		return &opw11011{c, p.legacy, p.delta, p.timer, p.rename}
	case 28:
		return &opw11100{c, p.legacy, p.delta, p.keyed}
	case 29:
		return &opw11101{c, p.legacy, p.delta, p.keyed, p.rename}
	case 30:
		return &opw11110{c, p.legacy, p.delta, p.keyed, p.timer}
	case 31:
		return &opw11111{c, p.legacy, p.delta, p.keyed, p.timer, p.rename}
	}
	panic("perfbench: operator interface mask out of range")
}

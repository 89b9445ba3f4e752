// Package sim provides the testbed's virtual byte-clock and its seeded
// random streams.
//
// Time in the simulator is a virtual byte-clock: the broadcast channel
// transmits exactly one byte per time unit, so every duration is expressed
// in bytes. This mirrors the paper's measurement model (EDBT 2002, §4.1),
// which evaluates access time and tuning time "in terms of the number of
// bytes read" to remove CPU-speed and network-delay noise from the results.
//
// A request's process is one walk of the periodic broadcast schedule on
// this clock, from its arrival to its last bucket read; arrivals are the
// only events, and each request stream draws them in order from its own
// RNG, so the testbed needs no event queue.
package sim

// Time is a point on the simulation's virtual byte-clock. One unit equals
// the transmission time of one byte on the broadcast channel.
type Time int64

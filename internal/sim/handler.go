package sim

// Checkpoint handler descriptors. Wheel entries hold closures, which cannot
// be serialized; instead every event the network engine schedules carries a
// 64-bit descriptor naming the handler behind the closure:
//
//	kind(8 bits) << 56 | obj(32 bits) << 16 | param(16 bits)
//
// obj identifies the owning object (router id, global link index, node,
// telemetry registration ordinal) and param a sub-resource (input-VC index,
// output port, mesh direction). On restore the network resolves each
// descriptor back to the equivalent closure on the rebuilt object graph.
// Descriptor 0 is reserved for "not snapshotable" (events scheduled without
// a descriptor, as standalone tests do); a wheel holding such entries
// refuses to export.

// Handler kinds. The namespace is flat across subsystems so one wheel's
// entries are unambiguous.
const (
	HChanDeliver  uint8 = 1  // channel delivery (obj = global link index)
	HChanAccept   uint8 = 2  // reliable rx-accept pipeline register
	HChanFeedback uint8 = 3  // reliable ACK/NACK feedback
	HChanPump     uint8 = 4  // go-back-N replay pump
	HChanWatchdog uint8 = 5  // retransmit watchdog
	HRouterHOL    uint8 = 6  // HOL re-registration (obj = router, param = input VC)
	HRouterCredit uint8 = 7  // upstream credit return (obj = router, param = input VC)
	HRouterWake   uint8 = 8  // output wake poll (obj = router, param = port)
	HNICWake      uint8 = 9  // NIC injection wake (obj = node)
	HRecRefresh   uint8 = 10 // recovery liveness refresh (obj = router, param = dir)
	HRecScan      uint8 = 11 // recovery stall-watchdog scan
	HTelemSample  uint8 = 12 // telemetry sampler tick
	HTelemMarker  uint8 = 13 // telemetry scheduled marker (obj = ordinal)
	HPolicyTimer  uint8 = 14 // policy hold/backoff timer (obj = controller ordinal)
)

// HandlerID packs a handler descriptor.
func HandlerID(kind uint8, obj uint32, param uint16) uint64 {
	return uint64(kind)<<56 | uint64(obj)<<16 | uint64(param)
}

// HandlerKind extracts the kind field of a descriptor.
func HandlerKind(id uint64) uint8 { return uint8(id >> 56) }

// HandlerObj extracts the obj field of a descriptor.
func HandlerObj(id uint64) uint32 { return uint32(id >> 16) }

// HandlerParam extracts the param field of a descriptor.
func HandlerParam(id uint64) uint16 { return uint16(id) }

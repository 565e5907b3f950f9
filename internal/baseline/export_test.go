package baseline

// QueueDepth reports the current occupancy of an input queue.
func (r *PFRouter) QueueDepth(in int) int { return len(r.inputs[in].queue) }

package h1

import "net"

// HopIdleTimeout lets the external tests shorten the Transport's idle limit.
var HopIdleTimeout = &hopIdleTimeout

// Pooled reports whether c sits on the Transport's idle stack for addr.
func (h *Transport) Pooled(addr string, c net.Conn) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, pc := range h.idle[addr] {
		if pc.Conn == c {
			return true
		}
	}
	return false
}

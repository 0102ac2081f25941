package rts

// ForceGuarded makes n run the guarded loop bodies whatever its loop.
func ForceGuarded(n *Native) { n.guarded = true }

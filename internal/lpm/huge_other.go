//go:build !linux

package lpm

// adviseHuge leaves s on the default pages.
func adviseHuge([]uint32) {}

//go:build linux

package lpm

import (
	"syscall"
	"unsafe"
)

const hugePage = 2 << 20

// adviseHuge asks the kernel to back the 2 MiB-aligned interior of s with
// transparent huge pages.  Pages s has not touched yet fault in huge; pages
// already present are left to khugepaged to collapse.  If the kernel refuses
// the advice, s stays on base pages.
func adviseHuge(s []uint32) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
	lo := -int(uintptr(unsafe.Pointer(unsafe.SliceData(b)))) & (hugePage - 1)
	if hi := lo + (len(b)-lo)&^(hugePage-1); hi > lo {
		_ = syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE) // advisory only
	}
}

package kernel

// Kernel path work constants: the number of kernel data-structure
// accesses (charged through HAL.KAccess) each operation performs. These
// stand in for the loads and stores the compiled kernel executes along
// each path; under Virtual Ghost every one of them carries the
// sandboxing mask cost, which is where the Table 2 overheads come from.
//
// The values are calibrated once against the paper's *native* column
// (see EXPERIMENTS.md); the Virtual Ghost column is never set directly
// — it emerges from the HAL's per-access instrumentation charges.
const (
	// workSyscallDispatch is the common syscall entry/exit path
	// (thread lookup, credential checks, argument fetch, return).
	workSyscallDispatch = 20
	// workTimerTick is the timer-interrupt bookkeeping.
	workTimerTick = 40
	// workNameiPerComponent is one path-component lookup (directory
	// hash probe, vnode cache).
	workNameiPerComponent = 500
	// workOpenFile is open()'s post-lookup work: file allocation,
	// descriptor install, vnode locking.
	workOpenFile = 700
	// workCloseFile is close()'s teardown.
	workCloseFile = 300
	// workCreateFile is inode allocation + directory insert beyond the
	// lookup itself.
	workCreateFile = 2500
	// workUnlinkFile is directory remove + inode free.
	workUnlinkFile = 3800
	// workReadWriteBase is the fixed per-call cost of read()/write()
	// (uiomove setup, vnode lock, offset update).
	workReadWriteBase = 150
	// workReadWritePerPage is charged per 4 KiB moved (buffer-cache
	// lookup and segment bookkeeping; the byte copy itself is charged
	// by Copyin/Copyout).
	workReadWritePerPage = 40
	// workBufCacheHit is one buffer-cache hit.
	workBufCacheHit = 25
	// workBufCacheMiss is the extra work of a miss (allocation,
	// eviction) before the disk transfer cost.
	workBufCacheMiss = 120
	// workMmap is mmap()'s VM-object and map-entry manipulation.
	workMmap = 3500
	// workMunmap tears a region down.
	workMunmap = 2300
	// workPageFault is the fault path: map lookup, object traversal,
	// PTE install (the HAL MapPage adds its own checks under VG).
	workPageFault = 600
	// workFork is fork()'s proc allocation, credential/fd copies, and
	// VM-map duplication bookkeeping (page copies charged separately).
	workFork = 30000
	// workForkPerPage is the per-copied-page map/object work.
	workForkPerPage = 500
	// workExec is execve()'s image setup beyond fork.
	workExec = 35000
	// workExit is process teardown.
	workExit = 8000
	// workWait is wait4's reaping.
	workWait = 500
	// workSignalInstall is sigaction bookkeeping.
	workSignalInstall = 45
	// workSignalDeliver is the sendsig path (beyond the HAL's IC work).
	workSignalDeliver = 120
	// workKill is the kill() lookup and posting.
	workKill = 120
	// workSelectBase + workSelectPerFD model select()'s scan.
	workSelectBase  = 200
	workSelectPerFD = 24
	// workPipe is pipe creation.
	workPipe = 260
	// workSocket covers socket/bind/listen setup each.
	workSocket = 300
	// workNetPerPacket is protocol processing per packet.
	workNetPerPacket = 120
	// workSched is one scheduler pass (runqueue manipulation).
	workSched = 90
	// workPollCreate is poll-set allocation (sysPollCreate).
	workPollCreate = 300
	// workPollCtl covers poll-set edits, nonblock toggles, and socket
	// timeout arming — small descriptor-table manipulations.
	workPollCtl = 120
	// workPollWaitBase + workPollPerEvent model sysPollWait: a fixed
	// entry cost plus work per *reported* event — O(ready), never
	// O(members), which is the epoll cost shape that makes the C10K
	// server's syscall bill scale with traffic instead of connections.
	workPollWaitBase = 180
	workPollPerEvent = 30
	// workTimerFire is the expiry bookkeeping per fired timer.
	workTimerFire = 60
)

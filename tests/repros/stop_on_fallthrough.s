; A stop tag on an instruction that is not a branch. Such an instruction
; is never taken, so `addiu!sn` ends its task right after it, and the
; task exits to the next instruction, which is not among its descriptor
; targets. The checker used to read the conditional stop as never
; firing, walk on to `b!s B` and accept the program; every machine then
; faulted ("task at 0x1000 exited to Fall(4104), which is not among its
; descriptor targets").
;
; `ms-cfg::check_program` must reject this statically.
.data
out: .space 8

.text
main:
.task targets=B create=$2
A:
    li       $2, 7
    addiu!sn $2, $2, 1
    addiu    $2, $2, 1
    b!s      B
.task targets=halt create=$9
B:
    la       $9, out
    sd       $2, 0($9)
    halt

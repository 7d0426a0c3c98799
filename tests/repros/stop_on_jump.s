; A stop tag on a jump. A jump is always taken, so `j!st` ends its task
; just as `j!s` would, and the task exits to C, which is not among its
; descriptor targets. The checker used to read the conditional stop on
; a non-branch as never firing, follow the jump to C and accept the
; program; every machine then faulted ("task at 0x1000 exited to
; Jump(4108), which is not among its descriptor targets").
;
; `ms-cfg::check_program` must reject this statically.
.data
out: .space 8

.text
main:
.task targets=B create=$2
A:
    li!f  $2, 7
    j!st  C
    li    $2, 9
C:
    b!s   B
.task targets=halt create=$9
B:
    la    $9, out
    sd    $2, 0($9)
    halt

; A stop tag inside a suppressed call. Task A calls F, and F's
; `addiu!s` fires on its fall-through, so task A ends inside the call
; and exits to 0x1014, which is not among its descriptor targets. The
; checker used to warn ("stop bit inside function 0x1010 called by this
; task") and accept the program; every machine then faulted ("task at
; 0x1000 exited to Fall(4116), which is not among its descriptor
; targets").
;
; `ms-cfg::check_program` must reject this statically.
.text
main:
.task targets=B create=$2
A:
    li!f  $2, 7
    jal   F
    b!s   B
.task targets=halt create=
B:
    halt
F:
    addiu!s $3, $0, 1
    jr    $31

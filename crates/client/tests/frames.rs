//! The client's receive path against a scripted loopback peer: however
//! the peer's bytes are split or joined, a response decodes through
//! `parse_frame`, and a torn, corrupt or oversized one is refused with
//! the matching `WireError`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use verdict_client::{Client, ClientError};
use verdict_server::wire::{
    check_preamble, parse_frame, write_frame, write_preamble, Request, Response, WireError,
    PREAMBLE_LEN,
};

/// A connected client and its peer, which completes the handshake, waits
/// for the client's first request and answers it by running `script` on
/// the socket.
fn peer(script: impl FnOnce(&mut TcpStream) + Send + 'static) -> (Client, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        write_preamble(&mut stream).expect("preamble");
        let mut buf = Vec::new();
        while buf.len() < PREAMBLE_LEN {
            read_more(&mut stream, &mut buf);
        }
        check_preamble(&buf[..PREAMBLE_LEN]).expect("client preamble");
        buf.drain(..PREAMBLE_LEN);
        while parse_frame(&buf).expect("request frame").is_none() {
            read_more(&mut stream, &mut buf);
        }
        script(&mut stream);
    });
    (Client::connect(addr).expect("connect"), handle)
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    let mut chunk = [0u8; 1024];
    let n = stream.read(&mut chunk).expect("read");
    assert!(n > 0, "the client hung up");
    buf.extend_from_slice(&chunk[..n]);
}

fn framed(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &response.encode()).expect("frame");
    frame
}

fn metrics(json: &str) -> Response {
    Response::Metrics {
        json: json.to_string(),
    }
}

#[test]
fn a_response_written_one_byte_at_a_time_decodes() {
    let json = "{\"series\": [".to_string() + &"1, ".repeat(40) + "2]}";
    let frame = framed(&metrics(&json));
    let (mut client, peer) = peer(move |stream| {
        for byte in frame {
            stream.write_all(&[byte]).expect("one byte");
            thread::sleep(Duration::from_micros(200));
        }
    });
    assert_eq!(client.metrics_json().expect("metrics"), json);
    peer.join().expect("peer");
}

/// Two responses in one peer write: the bytes past the first wait in the
/// receive buffer and answer the next call.
#[test]
fn bytes_past_one_response_answer_the_next_call() {
    let mut both = framed(&metrics("first"));
    both.extend(framed(&Response::Bye));
    let (mut client, peer) = peer(move |stream| {
        stream.write_all(&both).expect("both");
        // Hold the socket until the second request arrives.
        let mut buf = Vec::new();
        while parse_frame(&buf).expect("close frame").is_none() {
            read_more(stream, &mut buf);
        }
        let (payload, _) = parse_frame(&buf).unwrap().unwrap();
        assert!(matches!(Request::decode(&payload), Ok(Request::Close)));
    });
    assert_eq!(client.metrics_json().expect("metrics"), "first");
    client.close().expect("bye from the buffer");
    peer.join().expect("peer");
}

/// The peer sends `bytes` of a response, then hangs up.
fn hang_up_after(bytes: Vec<u8>) -> ClientError {
    let (mut client, peer) = peer(move |stream| stream.write_all(&bytes).expect("write"));
    let err = client.metrics_json().expect_err("a torn response");
    peer.join().expect("peer");
    err
}

#[test]
fn eof_inside_a_frame_is_torn() {
    let frame = framed(&metrics("cut short"));
    for cut in [0, 1, 5, 8, 9, frame.len() - 1] {
        let err = hang_up_after(frame[..cut].to_vec());
        assert!(
            matches!(err, ClientError::Wire(WireError::Torn)),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn a_flipped_payload_byte_fails_the_crc() {
    let mut frame = framed(&metrics("flip me"));
    let last = frame.len() - 1;
    frame[last] ^= 0x10;
    let err = hang_up_after(frame);
    assert!(
        matches!(err, ClientError::Wire(WireError::Crc { expected, actual }) if expected != actual),
        "{err:?}"
    );
}

/// A header announcing more than the 16 MiB cap is refused from the
/// header alone: the peer sends no payload and keeps the connection open
/// until the client has returned, so the client neither waited for the
/// announced bytes nor made room for them.
#[test]
fn an_announced_length_past_the_cap_is_refused_from_the_header() {
    let announced = (16u32 << 20) + 1;
    let (release, released) = mpsc::channel::<()>();
    let (mut client, peer) = peer(move |stream| {
        stream.write_all(&announced.to_le_bytes()).expect("len");
        stream.write_all(&0u32.to_le_bytes()).expect("crc");
        released.recv().expect("release");
    });
    let err = client.metrics_json().expect_err("too large");
    release.send(()).expect("release the peer");
    peer.join().expect("peer");
    assert!(
        matches!(err, ClientError::Wire(WireError::TooLarge(n)) if n == u64::from(announced)),
        "{err:?}"
    );
}

/// A peer that answers at once is read inside the client's bounded poll;
/// one that answers 10 ms later, well past it, is read by the blocking
/// read the poll falls back to. Both calls answer, in order, on one
/// connection.
#[test]
fn a_prompt_and_a_late_response_are_both_read() {
    let (mut client, peer) = peer(|stream| {
        stream
            .write_all(&framed(&metrics("prompt")))
            .expect("prompt");
        let mut buf = Vec::new();
        while parse_frame(&buf).expect("second request").is_none() {
            read_more(stream, &mut buf);
        }
        thread::sleep(Duration::from_millis(10));
        stream.write_all(&framed(&metrics("late"))).expect("late");
    });
    assert_eq!(client.metrics_json().expect("prompt"), "prompt");
    assert_eq!(client.metrics_json().expect("late"), "late");
    peer.join().expect("peer");
}
